//===- smt/Evaluator.cpp --------------------------------------------------===//

#include "smt/Evaluator.h"

#include <cassert>

using namespace seqver;
using namespace seqver::smt;

namespace {

/// The sum under Values, wrapping on overflow; Overflow is set when a
/// product or partial sum leaves the int64_t range.
int64_t sumOf(const LinSum &Sum, const Assignment &Values, bool &Overflow) {
  int64_t Acc = Sum.Constant;
  for (const auto &[Var, Coeff] : Sum.Terms) {
    int64_t Product;
    Overflow |= __builtin_mul_overflow(Coeff, Values.intValue(Var), &Product);
    Overflow |= __builtin_add_overflow(Acc, Product, &Acc);
  }
  return Acc;
}

bool formulaOf(Term Formula, const Assignment &Values, bool &Overflow) {
  switch (Formula->kind()) {
  case TermKind::BoolConst:
    return Formula->boolValue();
  case TermKind::BoolVar:
    return Values.boolValue(Formula);
  case TermKind::IntVar:
    assert(false && "int term evaluated as formula");
    return false;
  case TermKind::AtomLe:
    return sumOf(Formula->sum(), Values, Overflow) <= 0;
  case TermKind::AtomEq:
    return sumOf(Formula->sum(), Values, Overflow) == 0;
  case TermKind::Not:
    return !formulaOf(Formula->child(0), Values, Overflow);
  case TermKind::And:
    for (Term Child : Formula->children())
      if (!formulaOf(Child, Values, Overflow))
        return false;
    return true;
  case TermKind::Or:
    for (Term Child : Formula->children())
      if (formulaOf(Child, Values, Overflow))
        return true;
    return false;
  case TermKind::Iff:
    return formulaOf(Formula->child(0), Values, Overflow) ==
           formulaOf(Formula->child(1), Values, Overflow);
  }
  assert(false && "unhandled term kind");
  return false;
}

} // namespace

int64_t seqver::smt::evalSum(const LinSum &Sum, const Assignment &Values) {
  bool Overflow = false;
  return sumOf(Sum, Values, Overflow);
}

bool seqver::smt::evalFormula(Term Formula, const Assignment &Values) {
  bool Overflow = false;
  return formulaOf(Formula, Values, Overflow);
}

bool seqver::smt::satisfies(const Assignment &Values, Term Formula) {
  // The evaluation short-circuits, so the result depends only on the atoms
  // it visited; if none of them overflowed, it is exact integer arithmetic.
  bool Overflow = false;
  return formulaOf(Formula, Values, Overflow) && !Overflow;
}
