//===- smt/Evaluator.h - Ground evaluation of terms -----------------------===//
///
/// \file
/// Evaluates formulas under a total assignment of the program variables.
/// Used by the explicit-state interpreter (bug-trace replay), by property
/// tests that cross-check the solver against brute-force enumeration, by
/// the theory layer to validate candidate models, and by solver sessions to
/// answer queries from earlier countermodels.
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_SMT_EVALUATOR_H
#define SEQVER_SMT_EVALUATOR_H

#include "smt/Term.h"

#include <cstdint>
#include <map>

namespace seqver {
namespace smt {

/// A total assignment: integer variables default to 0 and boolean variables
/// to false when not explicitly set.
struct Assignment {
  std::map<Term, int64_t> IntValues;
  std::map<Term, bool> BoolValues;

  int64_t intValue(Term Var) const {
    auto It = IntValues.find(Var);
    return It == IntValues.end() ? 0 : It->second;
  }
  bool boolValue(Term Var) const {
    auto It = BoolValues.find(Var);
    return It != BoolValues.end() && It->second;
  }
};

/// Evaluates a linear sum under Values; overflow wraps (two's complement).
int64_t evalSum(const LinSum &Sum, const Assignment &Values);

/// Evaluates a boolean-sorted term under Values, with evalSum's wrapping.
bool evalFormula(Term Formula, const Assignment &Values);

/// True iff Values is an integer model of Formula. Sums are computed with
/// checked arithmetic, and an overflow counts as "not satisfied", so a true
/// answer never rests on a wrapped value (the solver's model cache answers
/// Sat from it).
bool satisfies(const Assignment &Values, Term Formula);

} // namespace smt
} // namespace seqver

#endif // SEQVER_SMT_EVALUATOR_H
