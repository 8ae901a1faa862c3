#ifndef GPML_AST_LABEL_EXPR_H_
#define GPML_AST_LABEL_EXPR_H_

#include <memory>
#include <string>
#include <vector>

namespace gpml {

struct LabelExpr;
/// Label expressions are immutable after parsing and freely shared between
/// the original and normalized/expanded pattern trees.
using LabelExprPtr = std::shared_ptr<const LabelExpr>;

/// A label expression (§4.1): conjunction `&`, disjunction `|`, negation `!`,
/// grouping, the wildcard `%` (matches any element that has at least one
/// label — hence `!%` matches exactly the label-less elements), and plain
/// label names. Evaluated against the label set of a node or edge.
struct LabelExpr {
  enum class Kind { kName, kWildcard, kNot, kAnd, kOr };

  Kind kind = Kind::kName;
  std::string name;              // kName only.
  LabelExprPtr left;             // kNot (operand), kAnd/kOr.
  LabelExprPtr right;            // kAnd/kOr.

  static LabelExprPtr Name(std::string n);
  static LabelExprPtr Wildcard();
  static LabelExprPtr Not(LabelExprPtr e);
  static LabelExprPtr And(LabelExprPtr l, LabelExprPtr r);
  static LabelExprPtr Or(LabelExprPtr l, LabelExprPtr r);

  /// `labels` must be sorted (as ElementView::labels() returns them).
  bool Matches(const std::vector<std::string>& labels) const;

  /// Appends the names an element *must* carry for this expression to match:
  /// a plain name is required, and a conjunction requires both sides'
  /// requirements. Disjunctions, negations and the wildcard contribute
  /// nothing (no single name is necessary under them). Seeding from any
  /// required name's label index is therefore sound — every match carries it.
  void CollectRequiredNames(std::vector<const std::string*>* out) const;

  /// Renders with minimal parentheses, e.g. "Account|IP", "!(A&B)".
  std::string ToString() const;

  /// Structural equality (used by parser round-trip tests).
  static bool Equal(const LabelExprPtr& a, const LabelExprPtr& b);
};

}  // namespace gpml

#endif  // GPML_AST_LABEL_EXPR_H_
