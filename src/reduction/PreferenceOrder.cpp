//===- reduction/PreferenceOrder.cpp - Preference orders ------------------===//

#include "reduction/PreferenceOrder.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace seqver;
using namespace seqver::red;
using seqver::automata::Letter;

PreferenceOrder::~PreferenceOrder() = default;

std::vector<uint32_t> PreferenceOrder::ranks(Context Ctx,
                                             uint32_t NumLetters) const {
  std::vector<Letter> Sorted(NumLetters);
  std::iota(Sorted.begin(), Sorted.end(), 0);
  std::sort(Sorted.begin(), Sorted.end(),
            [&](Letter A, Letter B) { return less(Ctx, A, B); });
  std::vector<uint32_t> Rank(NumLetters, 0);
  for (uint32_t I = 0; I < NumLetters; ++I)
    Rank[Sorted[I]] = I;
  return Rank;
}

SequentialOrder::SequentialOrder(const prog::ConcurrentProgram &P) {
  ThreadOf.reserve(P.numLetters());
  for (const prog::Action &A : P.actions())
    ThreadOf.push_back(A.ThreadId);
}

bool SequentialOrder::less(Context, Letter A, Letter B) const {
  if (ThreadOf[A] != ThreadOf[B])
    return ThreadOf[A] < ThreadOf[B];
  return A < B;
}

LockstepOrder::LockstepOrder(const prog::ConcurrentProgram &P)
    : NumThreads(P.numThreads()) {
  ThreadOf.reserve(P.numLetters());
  for (const prog::Action &A : P.actions())
    ThreadOf.push_back(A.ThreadId);
}

uint32_t LockstepOrder::threadRank(Context Ctx, int Thread) const {
  // Ctx == 0: initial, prefer thread 0 first. Ctx == t+1: thread t moved
  // last, prefer t+1, t+2, ..., t (round robin).
  int Last = Ctx == 0 ? NumThreads - 1 : static_cast<int>(Ctx) - 1;
  return static_cast<uint32_t>((Thread - Last - 1 + NumThreads) % NumThreads);
}

bool LockstepOrder::less(Context Ctx, Letter A, Letter B) const {
  uint32_t RankA = threadRank(Ctx, ThreadOf[A]);
  uint32_t RankB = threadRank(Ctx, ThreadOf[B]);
  if (RankA != RankB)
    return RankA < RankB;
  return A < B;
}

PreferenceOrder::Context LockstepOrder::advance(Context, Letter L) const {
  return static_cast<Context>(ThreadOf[L]) + 1;
}

RandomOrder::RandomOrder(const prog::ConcurrentProgram &P, uint64_t Seed)
    : Seed(Seed) {
  std::vector<Letter> Perm(P.numLetters());
  std::iota(Perm.begin(), Perm.end(), 0);
  Rng R(Seed * 0x9E3779B97F4A7C15ULL + 17);
  R.shuffle(Perm);
  Rank.resize(P.numLetters());
  for (uint32_t I = 0; I < Perm.size(); ++I)
    Rank[Perm[I]] = I;
}

bool RandomOrder::less(Context, Letter A, Letter B) const {
  return Rank[A] < Rank[B];
}

std::vector<std::unique_ptr<PreferenceOrder>>
seqver::red::makePortfolioOrders(const prog::ConcurrentProgram &P,
                                 uint64_t RandSeedBase) {
  std::vector<std::unique_ptr<PreferenceOrder>> Orders;
  Orders.push_back(std::make_unique<SequentialOrder>(P));
  Orders.push_back(std::make_unique<LockstepOrder>(P));
  for (int K = 1; K <= NumRandomOrders; ++K)
    Orders.push_back(std::make_unique<RandomOrder>(
        P, RandSeedBase + static_cast<uint64_t>(K)));
  return Orders;
}
