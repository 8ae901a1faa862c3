#include "gql/json_export.h"

#include <cstdio>
#include <sstream>

namespace gpml {

namespace {

/// Length of the well-formed UTF-8 sequence starting at p (RFC 3629 table:
/// no overlongs, no surrogates, max U+10FFFF), or 0 when the bytes do not
/// start one. `remaining` bounds the lookahead.
size_t Utf8SequenceLength(const unsigned char* p, size_t remaining) {
  const unsigned char b0 = p[0];
  if (b0 < 0x80) return 1;
  auto cont = [&](size_t i) { return (p[i] & 0xC0u) == 0x80u; };
  if (b0 >= 0xC2 && b0 <= 0xDF) {
    return (remaining >= 2 && cont(1)) ? 2 : 0;
  }
  if (b0 >= 0xE0 && b0 <= 0xEF) {
    if (remaining < 3 || !cont(1) || !cont(2)) return 0;
    const unsigned char b1 = p[1];
    if (b0 == 0xE0 && b1 < 0xA0) return 0;  // Overlong.
    if (b0 == 0xED && b1 > 0x9F) return 0;  // Surrogate U+D800..U+DFFF.
    return 3;
  }
  if (b0 >= 0xF0 && b0 <= 0xF4) {
    if (remaining < 4 || !cont(1) || !cont(2) || !cont(3)) return 0;
    const unsigned char b1 = p[1];
    if (b0 == 0xF0 && b1 < 0x90) return 0;  // Overlong.
    if (b0 == 0xF4 && b1 > 0x8F) return 0;  // Above U+10FFFF.
    return 4;
  }
  return 0;  // 0x80..0xC1 (continuation/overlong lead), 0xF5..0xFF.
}

constexpr char kReplacement[] = "\xEF\xBF\xBD";  // U+FFFD.

}  // namespace

bool IsValidUtf8(const std::string& s) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(s.data());
  size_t i = 0;
  while (i < s.size()) {
    size_t len = Utf8SequenceLength(p + i, s.size() - i);
    if (len == 0) return false;
    i += len;
  }
  return true;
}

std::string SanitizeUtf8(const std::string& s) {
  if (IsValidUtf8(s)) return s;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(s.data());
  std::string out;
  out.reserve(s.size());
  size_t i = 0;
  while (i < s.size()) {
    size_t len = Utf8SequenceLength(p + i, s.size() - i);
    if (len == 0) {
      out += kReplacement;
      ++i;
    } else {
      out.append(s, i, len);
      i += len;
    }
  }
  return out;
}

std::string JsonEscape(const std::string& s) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(s.data());
  std::string out;
  out.reserve(s.size() + 2);
  size_t i = 0;
  while (i < s.size()) {
    const unsigned char c = p[i];
    switch (c) {
      case '"': out += "\\\""; ++i; continue;
      case '\\': out += "\\\\"; ++i; continue;
      case '\b': out += "\\b"; ++i; continue;
      case '\f': out += "\\f"; ++i; continue;
      case '\n': out += "\\n"; ++i; continue;
      case '\r': out += "\\r"; ++i; continue;
      case '\t': out += "\\t"; ++i; continue;
      default: break;
    }
    if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
      ++i;
      continue;
    }
    if (c < 0x80) {
      out += static_cast<char>(c);
      ++i;
      continue;
    }
    size_t len = Utf8SequenceLength(p + i, s.size() - i);
    if (len == 0) {
      out += kReplacement;
      ++i;
    } else {
      out.append(s, i, len);
      i += len;
    }
  }
  return out;
}

namespace {

std::string ValueToJson(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull: return "null";
    case ValueType::kBool: return v.bool_value() ? "true" : "false";
    case ValueType::kInt: return std::to_string(v.int_value());
    case ValueType::kDouble: {
      std::ostringstream os;
      os << v.double_value();
      return os.str();
    }
    case ValueType::kString:
      return "\"" + JsonEscape(v.string_value()) + "\"";
  }
  return "null";
}

std::string PathToJson(const PropertyGraph& g, const Path& p) {
  std::ostringstream os;
  os << "{\"kind\":\"path\",\"length\":" << p.Length() << ",\"elements\":[";
  for (size_t i = 0; i < p.nodes().size(); ++i) {
    if (i > 0) os << ",";
    os << "\"" << JsonEscape(g.node(p.nodes()[i]).name) << "\"";
    if (i < p.edges().size()) {
      os << ",\"" << JsonEscape(g.edge(p.edges()[i]).name) << "\"";
    }
  }
  os << "]}";
  return os.str();
}

}  // namespace

std::string ElementToJson(const PropertyGraph& g, const ElementRef& ref) {
  const ElementView d = g.element(ref);
  std::ostringstream os;
  os << "{\"kind\":\"" << (ref.is_node() ? "node" : "edge") << "\",";
  os << "\"name\":\"" << JsonEscape(d.name) << "\",";
  if (ref.is_edge()) {
    os << "\"directed\":" << (d.directed ? "true" : "false") << ",";
    os << "\"endpoints\":[\"" << JsonEscape(g.node(d.u).name) << "\",\""
       << JsonEscape(g.node(d.v).name) << "\"],";
  }
  os << "\"labels\":[";
  bool first = true;
  for (const std::string& label : d.labels()) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(label) << "\"";
  }
  os << "],\"properties\":{";
  first = true;
  for (const auto& [k, v] : d.properties()) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(k) << "\":" << ValueToJson(v);
  }
  os << "}}";
  return os.str();
}

std::string RowToJson(const MatchOutput& output, const ResultRow& row,
                      const PropertyGraph& g) {
  std::ostringstream os;
  os << "{";
  RowScope scope(output, row);
  bool first_var = true;
  for (int v = 0; v < output.vars->size(); ++v) {
    const VarInfo& info = output.vars->info(v);
    if (info.anonymous) continue;
    if (!first_var) os << ",";
    first_var = false;
    os << "\"" << JsonEscape(info.name) << "\":";
    if (info.kind == VarInfo::Kind::kPath) {
      const Path* p = scope.LookupPath(v);
      os << (p == nullptr ? "null" : PathToJson(g, *p));
      continue;
    }
    if (info.group) {
      os << "[";
      std::vector<ElementRef> elems = scope.CollectGroup(v);
      for (size_t i = 0; i < elems.size(); ++i) {
        if (i > 0) os << ",";
        os << ElementToJson(g, elems[i]);
      }
      os << "]";
      continue;
    }
    std::optional<ElementRef> el = scope.LookupSingleton(v);
    os << (el.has_value() ? ElementToJson(g, *el) : "null");
  }
  os << "}";
  return os.str();
}

std::string ExportJson(const MatchOutput& output, const PropertyGraph& g) {
  std::ostringstream os;
  os << "{\"rows\":[";
  bool first_row = true;
  for (const ResultRow& row : output.rows) {
    if (!first_row) os << ",";
    first_row = false;
    os << RowToJson(output, row, g);
  }
  os << "]}";
  return os.str();
}

}  // namespace gpml
