#include "ast/label_expr.h"

#include <gtest/gtest.h>

namespace gpml {
namespace {

// E5: label expressions of §4.1 — &, |, !, %, grouping.

std::vector<std::string> L(std::initializer_list<const char*> names) {
  std::vector<std::string> out(names.begin(), names.end());
  // Element views return labels sorted.
  std::sort(out.begin(), out.end());
  return out;
}

TEST(LabelExprTest, PlainName) {
  LabelExprPtr e = LabelExpr::Name("Account");
  EXPECT_TRUE(e->Matches(L({"Account"})));
  EXPECT_TRUE(e->Matches(L({"Account", "Premium"})));
  EXPECT_FALSE(e->Matches(L({"IP"})));
  EXPECT_FALSE(e->Matches(L({})));
}

TEST(LabelExprTest, Disjunction) {
  // (x:Account|IP) from §4.1.
  LabelExprPtr e =
      LabelExpr::Or(LabelExpr::Name("Account"), LabelExpr::Name("IP"));
  EXPECT_TRUE(e->Matches(L({"Account"})));
  EXPECT_TRUE(e->Matches(L({"IP"})));
  EXPECT_FALSE(e->Matches(L({"Phone"})));
}

TEST(LabelExprTest, Conjunction) {
  // City&Country matches only c2-style nodes.
  LabelExprPtr e =
      LabelExpr::And(LabelExpr::Name("City"), LabelExpr::Name("Country"));
  EXPECT_TRUE(e->Matches(L({"City", "Country"})));
  EXPECT_FALSE(e->Matches(L({"Country"})));
  EXPECT_FALSE(e->Matches(L({"City"})));
}

TEST(LabelExprTest, WildcardMatchesAnyLabelled) {
  LabelExprPtr e = LabelExpr::Wildcard();
  EXPECT_TRUE(e->Matches(L({"Account"})));
  EXPECT_FALSE(e->Matches(L({})));
}

TEST(LabelExprTest, NotWildcardMatchesUnlabelled) {
  // (:!%) matches nodes that have no labels (§4.1).
  LabelExprPtr e = LabelExpr::Not(LabelExpr::Wildcard());
  EXPECT_TRUE(e->Matches(L({})));
  EXPECT_FALSE(e->Matches(L({"Account"})));
}

TEST(LabelExprTest, Negation) {
  LabelExprPtr e = LabelExpr::Not(LabelExpr::Name("Account"));
  EXPECT_FALSE(e->Matches(L({"Account"})));
  EXPECT_TRUE(e->Matches(L({"IP"})));
  EXPECT_TRUE(e->Matches(L({})));
}

TEST(LabelExprTest, NestedExpression) {
  // !(City&Country) | Phone
  LabelExprPtr e = LabelExpr::Or(
      LabelExpr::Not(
          LabelExpr::And(LabelExpr::Name("City"), LabelExpr::Name("Country"))),
      LabelExpr::Name("Phone"));
  EXPECT_FALSE(e->Matches(L({"City", "Country"})));
  EXPECT_TRUE(e->Matches(L({"City"})));
  EXPECT_TRUE(e->Matches(L({"City", "Country", "Phone"})));
}

TEST(LabelExprTest, PrintingMinimalParens) {
  EXPECT_EQ(LabelExpr::Name("A")->ToString(), "A");
  EXPECT_EQ(LabelExpr::Wildcard()->ToString(), "%");
  EXPECT_EQ(
      LabelExpr::Or(LabelExpr::Name("A"), LabelExpr::Name("B"))->ToString(),
      "A|B");
  EXPECT_EQ(
      LabelExpr::And(LabelExpr::Or(LabelExpr::Name("A"), LabelExpr::Name("B")),
                     LabelExpr::Name("C"))
          ->ToString(),
      "(A|B)&C");
  EXPECT_EQ(LabelExpr::Not(LabelExpr::And(LabelExpr::Name("A"),
                                          LabelExpr::Name("B")))
                ->ToString(),
            "!(A&B)");
  EXPECT_EQ(LabelExpr::Not(LabelExpr::Wildcard())->ToString(), "!%");
}

TEST(LabelExprTest, StructuralEquality) {
  LabelExprPtr a =
      LabelExpr::Or(LabelExpr::Name("A"), LabelExpr::Name("B"));
  LabelExprPtr b =
      LabelExpr::Or(LabelExpr::Name("A"), LabelExpr::Name("B"));
  LabelExprPtr c =
      LabelExpr::Or(LabelExpr::Name("B"), LabelExpr::Name("A"));
  EXPECT_TRUE(LabelExpr::Equal(a, b));
  EXPECT_FALSE(LabelExpr::Equal(a, c));
  EXPECT_TRUE(LabelExpr::Equal(nullptr, nullptr));
  EXPECT_FALSE(LabelExpr::Equal(a, nullptr));
}

}  // namespace
}  // namespace gpml
