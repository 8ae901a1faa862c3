// Hardened JSON string escaping and UTF-8 sanitation (gql/json_export.h).
//
// The escaping here is load-bearing for the wire protocol: the server
// serializes every result row with RowToJson and clients diff the raw
// bytes against in-process exports (bench_server), so JsonEscape must
// produce output that (a) always parses under the strict wire parser and
// (b) is always valid UTF-8, whatever bytes a property value holds. The
// exhaustive round-trips below pin that down for every 1- and 2-byte
// input; targeted cases cover the boundary code points and the classic
// invalid-UTF-8 shapes.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "eval/engine.h"
#include "gql/json_export.h"
#include "graph/generator.h"
#include "graph/graph_builder.h"
#include "graph/sample_graph.h"
#include "server/json.h"

namespace gpml {
namespace {

// Escape, wrap as a JSON string literal, parse with the strict wire
// parser, and return the decoded payload. Any parse failure is fatal: it
// means JsonEscape emitted something the protocol cannot carry.
std::string RoundTrip(const std::string& s) {
  std::string doc = "\"" + JsonEscape(s) + "\"";
  Result<server::JsonValue> parsed = server::ParseJson(doc);
  EXPECT_TRUE(parsed.ok()) << "escaped form does not parse: " << doc << "\n  "
                           << parsed.status().ToString();
  if (!parsed.ok()) return "<unparseable>";
  EXPECT_TRUE(parsed->is_string());
  return parsed->string_v;
}

// --- exhaustive byte-level round-trips -------------------------------------

// Every single-byte string: escaping must yield a parseable JSON literal
// that decodes to the sanitized input (identical for ASCII, U+FFFD for
// stray continuation/lead bytes).
TEST(JsonEscapeTest, ExhaustiveOneByteRoundTrip) {
  for (int b = 0; b < 256; ++b) {
    std::string s(1, static_cast<char>(b));
    std::string decoded = RoundTrip(s);
    EXPECT_EQ(decoded, SanitizeUtf8(s)) << "byte 0x" << std::hex << b;
    EXPECT_TRUE(IsValidUtf8(decoded)) << "byte 0x" << std::hex << b;
  }
}

// Every two-byte string: covers all valid 2-byte UTF-8 sequences, all
// truncated lead bytes followed by ASCII, overlong 2-byte encodings, and
// every control/quote/backslash pairing.
TEST(JsonEscapeTest, ExhaustiveTwoByteRoundTrip) {
  for (int b0 = 0; b0 < 256; ++b0) {
    for (int b1 = 0; b1 < 256; ++b1) {
      std::string s;
      s.push_back(static_cast<char>(b0));
      s.push_back(static_cast<char>(b1));
      std::string doc = "\"" + JsonEscape(s) + "\"";
      Result<server::JsonValue> parsed = server::ParseJson(doc);
      ASSERT_TRUE(parsed.ok())
          << "bytes 0x" << std::hex << b0 << " 0x" << b1 << ": " << doc;
      ASSERT_TRUE(parsed->is_string());
      ASSERT_EQ(parsed->string_v, SanitizeUtf8(s))
          << "bytes 0x" << std::hex << b0 << " 0x" << b1;
    }
  }
}

// --- the escape table itself -----------------------------------------------

TEST(JsonEscapeTest, TwoCharEscapes) {
  EXPECT_EQ(JsonEscape("\""), "\\\"");
  EXPECT_EQ(JsonEscape("\\"), "\\\\");
  EXPECT_EQ(JsonEscape("\b"), "\\b");
  EXPECT_EQ(JsonEscape("\f"), "\\f");
  EXPECT_EQ(JsonEscape("\n"), "\\n");
  EXPECT_EQ(JsonEscape("\r"), "\\r");
  EXPECT_EQ(JsonEscape("\t"), "\\t");
}

TEST(JsonEscapeTest, ControlCharsWithoutShortEscapesUseU00XX) {
  EXPECT_EQ(JsonEscape(std::string(1, '\0')), "\\u0000");
  EXPECT_EQ(JsonEscape("\x01"), "\\u0001");
  EXPECT_EQ(JsonEscape("\x0b"), "\\u000b");  // Vertical tab: no \v in JSON.
  EXPECT_EQ(JsonEscape("\x1f"), "\\u001f");
  // 0x20 and up are not control characters.
  EXPECT_EQ(JsonEscape(" "), " ");
  EXPECT_EQ(JsonEscape("\x7f"), "\x7f");  // DEL is legal raw in JSON.
}

// The expectations extensions_test has always pinned must keep holding.
TEST(JsonEscapeTest, LegacyExpectations) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonEscape("plain"), "plain");
}

TEST(JsonEscapeTest, ValidMultiByteUtf8PassesVerbatim) {
  // Never \u-escaped: the wire stays UTF-8, not ASCII-armored.
  EXPECT_EQ(JsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");
  EXPECT_EQ(JsonEscape("\xe2\x82\xac"), "\xe2\x82\xac");          // €
  EXPECT_EQ(JsonEscape("\xf0\x9f\x98\x80"), "\xf0\x9f\x98\x80");  // 😀
}

// --- UTF-8 boundary code points --------------------------------------------

struct Boundary {
  const char* bytes;
  const char* what;
};

TEST(Utf8Test, BoundaryCodePointsAreValid) {
  const Boundary kValid[] = {
      {"\x7f", "U+007F (last 1-byte)"},
      {"\xc2\x80", "U+0080 (first 2-byte)"},
      {"\xdf\xbf", "U+07FF (last 2-byte)"},
      {"\xe0\xa0\x80", "U+0800 (first 3-byte)"},
      {"\xed\x9f\xbf", "U+D7FF (below surrogates)"},
      {"\xee\x80\x80", "U+E000 (above surrogates)"},
      {"\xef\xbf\xbf", "U+FFFF (last 3-byte)"},
      {"\xf0\x90\x80\x80", "U+10000 (first 4-byte)"},
      {"\xf4\x8f\xbf\xbf", "U+10FFFF (last code point)"},
  };
  for (const Boundary& c : kValid) {
    std::string s = c.bytes;
    EXPECT_TRUE(IsValidUtf8(s)) << c.what;
    EXPECT_EQ(SanitizeUtf8(s), s) << c.what;
    EXPECT_EQ(RoundTrip(s), s) << c.what;
  }
}

TEST(Utf8Test, InvalidSequencesAreRejectedAndSanitized) {
  const Boundary kInvalid[] = {
      {"\x80", "stray continuation byte"},
      {"\xbf", "stray continuation byte (high)"},
      {"\xc0\xaf", "overlong 2-byte '/'"},
      {"\xc1\xbf", "overlong 2-byte"},
      {"\xe0\x80\x80", "overlong 3-byte NUL"},
      {"\xe0\x9f\xbf", "overlong 3-byte U+07FF"},
      {"\xf0\x80\x80\x80", "overlong 4-byte NUL"},
      {"\xf0\x8f\xbf\xbf", "overlong 4-byte U+FFFF"},
      {"\xed\xa0\x80", "surrogate U+D800 (CESU-8)"},
      {"\xed\xbf\xbf", "surrogate U+DFFF (CESU-8)"},
      {"\xf4\x90\x80\x80", "above U+10FFFF"},
      {"\xf5\x80\x80\x80", "lead byte 0xF5 (always invalid)"},
      {"\xfe", "lead byte 0xFE (never valid)"},
      {"\xff", "lead byte 0xFF (never valid)"},
      {"\xc2", "truncated 2-byte sequence"},
      {"\xe2\x82", "truncated 3-byte sequence"},
      {"\xf0\x9f\x98", "truncated 4-byte sequence"},
  };
  const std::string kReplacement = "\xef\xbf\xbd";  // U+FFFD.
  for (const Boundary& c : kInvalid) {
    std::string s = c.bytes;
    EXPECT_FALSE(IsValidUtf8(s)) << c.what;
    std::string sane = SanitizeUtf8(s);
    EXPECT_TRUE(IsValidUtf8(sane)) << c.what;
    // One replacement per invalid byte, nothing else.
    EXPECT_EQ(sane.size(), s.size() * kReplacement.size()) << c.what;
    for (size_t i = 0; i + 3 <= sane.size(); i += 3) {
      EXPECT_EQ(sane.substr(i, 3), kReplacement) << c.what;
    }
  }
}

TEST(Utf8Test, InvalidByteInsideValidTextOnlyReplacesThatByte) {
  std::string s = "ok\x80go\xc3\xa9" + std::string("\xff");
  std::string sane = SanitizeUtf8(s);
  EXPECT_EQ(sane, "ok\xef\xbf\xbdgo\xc3\xa9\xef\xbf\xbd");
  EXPECT_TRUE(IsValidUtf8(sane));
}

TEST(Utf8Test, TruncatedLeadFollowedByAsciiKeepsTheAscii) {
  // 0xE2 opens a 3-byte sequence but 'x' is not a continuation: only the
  // lead byte is replaced; the ASCII resynchronizes.
  EXPECT_EQ(SanitizeUtf8("\xe2x"), "\xef\xbf\xbdx");
}

TEST(Utf8Test, SanitizeIsIdempotent) {
  const char* cases[] = {"plain", "\x80\x80", "\xed\xa0\x80", "a\xffz",
                         "\xf0\x9f\x98\x80"};
  for (const char* c : cases) {
    std::string once = SanitizeUtf8(c);
    EXPECT_EQ(SanitizeUtf8(once), once) << c;
  }
}

TEST(Utf8Test, EmptyAndPureAscii) {
  EXPECT_TRUE(IsValidUtf8(""));
  EXPECT_EQ(SanitizeUtf8(""), "");
  std::string ascii;
  for (int b = 0; b < 0x80; ++b) ascii.push_back(static_cast<char>(b));
  EXPECT_TRUE(IsValidUtf8(ascii));
  EXPECT_EQ(SanitizeUtf8(ascii), ascii);
}

// --- RowToJson vs ExportJson -----------------------------------------------

// RowToJson must emit exactly the element ExportJson puts in its "rows"
// array — this equivalence is what lets the server stream rows one at a
// time while staying byte-identical to a whole-result export.
TEST(RowToJsonTest, RowsMatchExportJsonElements) {
  PropertyGraph g = BuildPaperGraph();
  Engine engine(g);
  Result<MatchOutput> out = engine.Match(
      "MATCH (x:Account)-[t:Transfer]->(y:Account)");
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_FALSE(out->rows.empty());

  std::string doc = ExportJson(*out, g);
  Result<server::JsonValue> parsed = server::ParseJson(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const server::JsonValue* rows = parsed->Find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_TRUE(rows->is_array());
  ASSERT_EQ(rows->array_v.size(), out->rows.size());
  for (size_t i = 0; i < out->rows.size(); ++i) {
    EXPECT_EQ(rows->array_v[i].RawSpan(doc),
              RowToJson(*out, out->rows[i], g))
        << "row " << i;
  }
}

// Hostile property values survive export: the document still parses and
// every decoded string is valid UTF-8.
TEST(RowToJsonTest, HostilePropertyValuesStayParseable) {
  GraphBuilder b;
  b.AddNode("n1", {"N"},
            {{"ctrl", Value::String(std::string("a\0b\x1f", 4))},
             {"bad", Value::String("x\x80y\xed\xa0\x80z")},
             {"quote", Value::String("say \"hi\"\\done")},
             {"emoji", Value::String("ok \xf0\x9f\x98\x80")}});
  b.AddNode("n2", {"N"});
  b.AddDirectedEdge("e1", "n1", "n2", {"E"},
                    {{"note", Value::String("tab\there\xc2")}});
  Result<PropertyGraph> built = std::move(b).Build();
  ASSERT_TRUE(built.ok()) << built.status();
  Engine engine(*built);
  Result<MatchOutput> out = engine.Match("MATCH (x:N)-[e:E]->(y:N)");
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->rows.size(), 1u);

  std::string row = RowToJson(*out, out->rows[0], *built);
  EXPECT_TRUE(IsValidUtf8(row));
  Result<server::JsonValue> parsed = server::ParseJson(row);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n  " << row;

  const server::JsonValue* x = parsed->Find("x");
  ASSERT_NE(x, nullptr);
  const server::JsonValue* props = x->Find("properties");
  ASSERT_NE(props, nullptr);
  const server::JsonValue* ctrl = props->Find("ctrl");
  ASSERT_NE(ctrl, nullptr);
  EXPECT_EQ(ctrl->string_v, std::string("a\0b\x1f", 4));
  const server::JsonValue* bad = props->Find("bad");
  ASSERT_NE(bad, nullptr);
  EXPECT_EQ(bad->string_v, SanitizeUtf8("x\x80y\xed\xa0\x80z"));
  const server::JsonValue* quote = props->Find("quote");
  ASSERT_NE(quote, nullptr);
  EXPECT_EQ(quote->string_v, "say \"hi\"\\done");
}

// --- element export golden ---------------------------------------------------

// ElementToJson of every element of the paper graph and of a random mixed
// multigraph, one per line, must match tests/golden/element_json.txt byte
// for byte: node and edge views render names, endpoints, sorted labels and
// key-ordered properties exactly as the graph store always has.
TEST(ElementJsonTest, MatchesGolden) {
  std::string path = __FILE__;
  path = path.substr(0, path.find_last_of('/')) + "/golden/element_json.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::stringstream golden;
  golden << in.rdbuf();

  std::string got;
  for (const PropertyGraph& g :
       {BuildPaperGraph(), MakeRandomGraph(40, 120, 5, 0.3, /*seed=*/7)}) {
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      got += ElementToJson(g, ElementRef::Node(n)) + "\n";
    }
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      got += ElementToJson(g, ElementRef::Edge(e)) + "\n";
    }
  }
  EXPECT_EQ(got, golden.str());
}

}  // namespace
}  // namespace gpml
