//===- program/Program.h - Concurrent program model -----------------------===//
///
/// \file
/// The concurrent program model of Sec. 3: a fixed number of threads, each a
/// control flow graph interpreted as a DFA over that thread's statement
/// alphabet; the program is their interleaving product. Correctness is
/// specified with assert statements (compiled to error locations), matching
/// the paper's implementation (Sec. 6.1 footnote and Sec. 8).
///
/// Each CFG edge is its own alphabet letter (an Action): thread alphabets are
/// disjoint by construction and per-state determinism is trivial.
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_PROGRAM_PROGRAM_H
#define SEQVER_PROGRAM_PROGRAM_H

#include "automata/Dfa.h"
#include "smt/Evaluator.h"
#include "smt/Term.h"

#include <optional>
#include <string>
#include <vector>

namespace seqver {
namespace prog {

/// A primitive state transformer; Actions are sequences of these.
struct Prim {
  enum class Kind : uint8_t { Assume, AssignInt, AssignBool, Havoc };

  Kind K = Kind::Assume;
  smt::Term Guard = nullptr;   ///< Assume
  smt::Term Var = nullptr;     ///< AssignInt/AssignBool/Havoc target
  smt::LinSum IntValue;        ///< AssignInt rhs
  smt::Term BoolValue = nullptr; ///< AssignBool rhs
};

/// An atomic program action: the payload of one CFG edge and one letter of
/// the program alphabet.
struct Action {
  automata::Letter Letter = 0;
  int ThreadId = -1;
  std::string Name;
  std::vector<Prim> Prims;
  /// Sorted, deduplicated variable footprints (filled by finalize()).
  std::vector<smt::Term> Reads;
  std::vector<smt::Term> Writes;

  bool writesVar(smt::Term V) const;
  bool readsVar(smt::Term V) const;
  /// True if the footprints overlap in a way that can make the two actions
  /// non-commutative (write/write or write/read overlap).
  bool footprintConflictsWith(const Action &Other) const;
};

using Location = uint32_t;

/// One thread's control flow graph. Locations are dense indices; the exit
/// location has no outgoing edges (Sec. 3); error locations (from asserts)
/// also have none.
struct ThreadCfg {
  std::string Name;
  Location InitialLoc = 0;
  std::vector<bool> IsErrorLoc;
  /// Outgoing edges per location, sorted by letter.
  std::vector<std::vector<std::pair<automata::Letter, Location>>> Edges;

  uint32_t numLocations() const {
    return static_cast<uint32_t>(Edges.size());
  }
  Location addLocation(bool IsError = false) {
    Edges.emplace_back();
    IsErrorLoc.push_back(IsError);
    return numLocations() - 1;
  }
  void addEdge(Location From, automata::Letter L, Location To);
  /// A location is terminal when it has no outgoing edges.
  bool isTerminal(Location Loc) const { return Edges[Loc].empty(); }
  bool containsAssert() const;
};

/// Product state: one location per thread.
using ProductState = std::vector<Location>;

/// One enabled move of a product state: thread Thread takes its edge
/// labelled Letter to location Target; every other thread stays put.
struct Edge {
  automata::Letter Letter = 0;
  int Thread = -1;
  Location Target = 0;
};

/// Acceptance mode for the explicit product automaton.
enum class AcceptMode {
  AllExit, ///< all threads at a terminal, non-error location (L(P), Sec. 3)
  Error,   ///< some thread at an error location (assert-violation traces)
};

/// A complete concurrent program over a shared TermManager.
class ConcurrentProgram {
public:
  explicit ConcurrentProgram(smt::TermManager &TM) : TM(TM) {}

  smt::TermManager &termManager() const { return TM; }

  /// Registers an action; returns its letter.
  automata::Letter addAction(Action A);
  int addThread(ThreadCfg Cfg);

  /// Declares a global with its initial value.
  void addGlobalInt(smt::Term Var, int64_t Init);
  void addGlobalBool(smt::Term Var, bool Init);
  /// Declares a global without an initializer: the verifier treats its
  /// initial value as arbitrary (havoc at program start); the concrete
  /// interpreter defaults it to 0 / false.
  void addGlobalUnconstrained(smt::Term Var);

  /// Pre/postcondition specification (Sec. 3). Defaults to (true, true);
  /// null arguments mean "keep true". The postcondition is checked at
  /// all-exit states in addition to the assert-based error locations.
  void setSpec(smt::Term Pre, smt::Term Post);
  /// Precondition (never null; true if unspecified).
  smt::Term preCondition() const;
  /// Postcondition (never null; true if unspecified).
  smt::Term postCondition() const;
  /// True if a nontrivial postcondition must be checked at exit.
  bool hasPostCondition() const;

  uint32_t numLetters() const {
    return static_cast<uint32_t>(Actions.size());
  }
  int numThreads() const { return static_cast<int>(Threads.size()); }
  const Action &action(automata::Letter L) const { return Actions[L]; }
  const std::vector<Action> &actions() const { return Actions; }
  const ThreadCfg &thread(int Id) const {
    return Threads[static_cast<size_t>(Id)];
  }

  /// size(P) = sum of thread sizes (number of control locations, Sec. 3).
  uint32_t size() const;

  /// Removes one CFG edge (used by dead-edge pruning). The action stays
  /// registered and keeps its letter — only the edge disappears, so letters
  /// never need remapping; the pruned letter simply stops being enabled.
  /// Returns false if no such edge exists.
  bool removeEdge(int ThreadId, Location From, automata::Letter L);

  /// Adds one CFG edge to an existing thread (used by transaction fusion
  /// to install the fused edge). The letter must belong to ThreadId.
  void addEdge(int ThreadId, Location From, automata::Letter L, Location To);

  const smt::Assignment &initialValues() const { return InitialState; }
  /// True if Var was declared with an initializer (its entry in
  /// initialValues() is binding rather than an interpreter default).
  bool isGlobalConstrained(smt::Term Var) const;
  /// Conjunction of  var == initial value  over all initialized globals,
  /// and of the precondition; unconstrained globals are left free.
  smt::Term initialConstraint() const;
  const std::vector<smt::Term> &globals() const { return Globals; }

  ProductState initialProductState() const;
  bool isErrorState(const ProductState &S) const;
  bool isAllExitState(const ProductState &S) const;

  /// The edges enabled in S, in increasing letter order, written into the
  /// caller's list Out (cleared first; left empty at error states, which
  /// have no successors). A caller that keeps Out across calls enumerates
  /// without allocating.
  void enabledEdges(const ProductState &S, std::vector<Edge> &Out) const;

  /// Successor states of S, one per enabledEdges() entry, in the same order.
  std::vector<std::pair<automata::Letter, ProductState>>
  successors(const ProductState &S) const;

  /// Explicit interleaving product automaton (exponential; tests and small
  /// experiments only). MaxStates = 0 means unlimited.
  automata::Dfa explicitProduct(AcceptMode Mode, uint32_t MaxStates = 0,
                                bool *Overflow = nullptr) const;

  /// Names of all letters (for printing / dot output).
  std::vector<std::string> letterNames() const;

private:
  smt::TermManager &TM;
  std::vector<Action> Actions;
  std::vector<ThreadCfg> Threads;
  std::vector<smt::Term> Globals;
  std::vector<bool> GlobalConstrained; // parallel to Globals
  smt::Assignment InitialState;
  smt::Term Requires = nullptr;
  smt::Term Ensures = nullptr;
};

} // namespace prog
} // namespace seqver

#endif // SEQVER_PROGRAM_PROGRAM_H
