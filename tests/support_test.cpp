//===- tests/support_test.cpp - Unit tests for the support library --------===//

#include "support/BitVec.h"
#include "support/OnceCache.h"
#include "support/RNG.h"
#include "support/Str.h"
#include "support/Table.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <chrono>
#include <gtest/gtest.h>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

using namespace bsched;

TEST(Str, FmtDouble) {
  EXPECT_EQ(fmtDouble(1.234, 2), "1.23");
  EXPECT_EQ(fmtDouble(1.0, 2), "1.00");
  EXPECT_EQ(fmtDouble(-0.5, 1), "-0.5");
}

TEST(Str, FmtPercent) {
  EXPECT_EQ(fmtPercent(0.233), "23.3%");
  EXPECT_EQ(fmtPercent(-0.121), "-12.1%");
  EXPECT_EQ(fmtPercent(1.0, 0), "100%");
}

TEST(Str, FmtInt) {
  EXPECT_EQ(fmtInt(0), "0");
  EXPECT_EQ(fmtInt(999), "999");
  EXPECT_EQ(fmtInt(1000), "1,000");
  EXPECT_EQ(fmtInt(1234567), "1,234,567");
  EXPECT_EQ(fmtInt(-1234567), "-1,234,567");
}

TEST(Str, FmtMillions) {
  EXPECT_EQ(fmtMillions(17844800000ull), "17844.8");
  EXPECT_EQ(fmtMillions(500000), "0.5");
}

TEST(Str, StartsWith) {
  EXPECT_TRUE(startsWith("hello", "he"));
  EXPECT_TRUE(startsWith("hello", ""));
  EXPECT_FALSE(startsWith("he", "hello"));
}

TEST(Table, RendersAlignedColumns) {
  Table T({"Name", "Value"});
  T.addRow({"a", "1"});
  T.addRow({"long-name", "2"});
  std::string Out = T.render();
  // Header present, all rows present, rows have equal width.
  EXPECT_NE(Out.find("Name"), std::string::npos);
  EXPECT_NE(Out.find("long-name"), std::string::npos);
  size_t FirstNL = Out.find('\n');
  ASSERT_NE(FirstNL, std::string::npos);
  // All lines equal length (aligned table).
  size_t Width = FirstNL;
  size_t Pos = 0;
  while (Pos < Out.size()) {
    size_t NL = Out.find('\n', Pos);
    ASSERT_NE(NL, std::string::npos);
    EXPECT_EQ(NL - Pos, Width);
    Pos = NL + 1;
  }
}

TEST(Table, ShortRowsArePadded) {
  Table T({"A", "B", "C"});
  T.addRow({"x"});
  EXPECT_EQ(T.numRows(), 1u);
  EXPECT_NE(T.render().find('x'), std::string::npos);
}

TEST(Table, CaptionIsFirstLine) {
  Table T({"A"});
  T.setCaption("Table 1: caption");
  EXPECT_TRUE(startsWith(T.render(), "Table 1: caption\n"));
}

TEST(RNG, Deterministic) {
  RNG A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RNG, DifferentSeedsDiffer) {
  RNG A(1), B(2);
  int Same = 0;
  for (int I = 0; I != 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 4);
}

TEST(RNG, DoubleInUnitInterval) {
  RNG R(7);
  for (int I = 0; I != 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(RNG, BoolProbabilityRoughlyMatches) {
  RNG R(11);
  int Hits = 0;
  const int N = 20000;
  for (int I = 0; I != N; ++I)
    Hits += R.nextBool(0.3);
  double P = static_cast<double>(Hits) / N;
  EXPECT_NEAR(P, 0.3, 0.02);
}

TEST(RNG, NextBelowInRange) {
  RNG R(3);
  for (int I = 0; I != 1000; ++I)
    EXPECT_LT(R.nextBelow(17), 17u);
}

TEST(RNG, NextBelowIsUnbiased) {
  // Regression for the classic modulo bias. With Bound = 3 * 2^62, a bare
  // `next() % Bound` maps the top quarter of the 64-bit range onto
  // [0, 2^62) a second time, so ~1/2 of all samples land below 2^62 where a
  // uniform draw puts only 1/3 there. Rejection sampling must hold 1/3.
  RNG R(7);
  const uint64_t Bound = 3ull << 62;
  const uint64_t Third = 1ull << 62;
  const int N = 3000;
  int Low = 0;
  for (int I = 0; I != N; ++I) {
    uint64_t X = R.nextBelow(Bound);
    ASSERT_LT(X, Bound);
    Low += X < Third;
  }
  // Uniform expectation 1000 (sigma ~26); the biased scheme would give
  // ~1500. The window is ~5 sigma wide on a deterministic stream.
  EXPECT_GT(Low, 870);
  EXPECT_LT(Low, 1130);
}

TEST(BitVec, SetTestReset) {
  BitVec V(130);
  EXPECT_FALSE(V.any());
  V.set(0);
  V.set(64);
  V.set(129);
  EXPECT_TRUE(V.test(0));
  EXPECT_TRUE(V.test(64));
  EXPECT_TRUE(V.test(129));
  EXPECT_FALSE(V.test(1));
  EXPECT_EQ(V.count(), 3u);
  V.reset(64);
  EXPECT_FALSE(V.test(64));
  EXPECT_EQ(V.count(), 2u);
}

TEST(BitVec, OrSubtractAnd) {
  BitVec A(100), B(100);
  A.set(3);
  B.set(3);
  B.set(70);
  EXPECT_TRUE(A.orWith(B));
  EXPECT_TRUE(A.test(70));
  EXPECT_FALSE(A.orWith(B)); // No change second time.
  A.subtract(B);
  EXPECT_FALSE(A.any());
  A.set(5);
  A.set(6);
  B.clear();
  B.set(6);
  A.andWith(B);
  EXPECT_FALSE(A.test(5));
  EXPECT_TRUE(A.test(6));
}

TEST(BitVec, ForEachVisitsInOrder) {
  BitVec V(200);
  V.set(1);
  V.set(63);
  V.set(64);
  V.set(199);
  std::vector<unsigned> Seen;
  V.forEach([&](unsigned I) { Seen.push_back(I); });
  EXPECT_EQ(Seen, (std::vector<unsigned>{1, 63, 64, 199}));
}

TEST(BitVec, Equality) {
  BitVec A(10), B(10);
  EXPECT_TRUE(A == B);
  A.set(9);
  EXPECT_FALSE(A == B);
  B.set(9);
  EXPECT_TRUE(A == B);
}

//===----------------------------------------------------------------------===//
// ThreadPool chunked dispatch
//===----------------------------------------------------------------------===//

// Every index is executed exactly once, for both chunk policies, across
// worker counts that undershoot, match, and oversubscribe the index range.
TEST(ThreadPoolChunked, EveryIndexExactlyOnce) {
  for (ChunkPolicy Policy : {ChunkPolicy::Static, ChunkPolicy::Guided}) {
    for (unsigned Threads : {1u, 2u, 3u, 8u}) {
      for (size_t Count : {size_t(0), size_t(1), size_t(5), size_t(257)}) {
        std::vector<std::atomic<unsigned>> Seen(Count);
        ThreadPool::parallelForChunked(
            Threads, Count, [&](size_t I) { ++Seen[I]; }, Policy);
        for (size_t I = 0; I != Count; ++I)
          EXPECT_EQ(Seen[I].load(), 1u)
              << "policy " << int(Policy) << " threads " << Threads
              << " count " << Count << " index " << I;
      }
    }
  }
}

// Static chunking hands each worker one contiguous slice: with results
// written by index the output is identical to the sequential loop, and the
// slice sizes differ by at most one.
TEST(ThreadPoolChunked, StaticSlicesAreBalanced) {
  constexpr size_t Count = 103;
  constexpr unsigned Threads = 4;
  std::vector<int> Out(Count, -1);
  ThreadPool::parallelForChunked(
      Threads, Count, [&](size_t I) { Out[I] = static_cast<int>(2 * I); },
      ChunkPolicy::Static);
  for (size_t I = 0; I != Count; ++I)
    EXPECT_EQ(Out[I], static_cast<int>(2 * I));
}

// Guided chunking: results written by index are independent of the worker
// count (the determinism contract runAll builds on).
TEST(ThreadPoolChunked, GuidedResultsIndependentOfThreadCount) {
  constexpr size_t Count = 1000;
  auto Run = [&](unsigned Threads) {
    std::vector<uint64_t> Out(Count);
    ThreadPool::parallelForChunked(
        Threads, Count, [&](size_t I) { Out[I] = I * I + 7; },
        ChunkPolicy::Guided);
    return Out;
  };
  std::vector<uint64_t> One = Run(1);
  std::vector<uint64_t> Eight = Run(8);
  EXPECT_EQ(One, Eight);
}

//===----------------------------------------------------------------------===//
// OnceCache
//===----------------------------------------------------------------------===//

// Eight threads asking for one key at once: the value is computed once,
// every other caller is a hit or waited on that computation, and all of
// them share the one entry.
TEST(OnceCache, ConcurrentCallersComputeOnce) {
  constexpr size_t N = 8;
  OnceCache<int, std::string> C;
  std::atomic<unsigned> Computes{0};
  std::vector<std::shared_ptr<const std::string>> Got(N);
  ThreadPool::parallelForChunked(
      N, N,
      [&](size_t I) {
        Got[I] = C.get(7, [&] {
          ++Computes;
          // Long enough that the other callers arrive mid-computation.
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          return std::string("seven");
        });
      },
      ChunkPolicy::Static);
  EXPECT_EQ(Computes.load(), 1u);
  OnceCacheStats S = C.stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits + S.InFlightWaits, N - 1);
  for (const auto &P : Got) {
    ASSERT_NE(P, nullptr);
    EXPECT_EQ(P.get(), Got[0].get());
    EXPECT_EQ(*P, "seven");
  }
}

// A bounded cache drops a full shard before a new key goes in, yet a
// caller still holding a dropped entry reads a valid value; the dropped key
// is computed afresh on its next request.
TEST(OnceCache, BoundDropsEntriesButHeldValuesStayValid) {
  OnceCache<int, std::string> C(/*MaxPerShard=*/1);
  auto Make = [](int K) {
    return [K] { return "value " + std::to_string(K); };
  };
  std::shared_ptr<const std::string> Held = C.get(0, Make(0));
  // 16 shards of one entry each: 64 more keys must land on key 0's shard.
  for (int K = 1; K != 65; ++K)
    EXPECT_EQ(*C.get(K, Make(K)), "value " + std::to_string(K));
  EXPECT_EQ(*Held, "value 0");
  OnceCacheStats Before = C.stats();
  EXPECT_EQ(*C.get(0, Make(0)), "value 0");
  EXPECT_EQ((C.stats() - Before).Misses, 1u) << "key 0 was never dropped";

  // The same from many threads: sweeps race with lookups and computations.
  constexpr size_t Requests = 4000;
  std::vector<int> Bad(Requests, 0);
  ThreadPool::parallelForChunked(
      8, Requests,
      [&](size_t I) {
        int K = static_cast<int>(I % 97);
        std::shared_ptr<const std::string> V = C.get(K, Make(K));
        Bad[I] = *V != "value " + std::to_string(K);
      },
      ChunkPolicy::Guided);
  EXPECT_EQ(std::accumulate(Bad.begin(), Bad.end(), 0), 0);
}

// clear() drops entries but keeps the counters; a phase's counts are the
// difference of two snapshots.
TEST(OnceCache, ClearKeepsCountersAndDeltasIsolateAPhase) {
  OnceCache<std::string, int> C;
  C.get("a", [] { return 1; });
  C.get("a", [] { return 1; });
  C.get("b", [] { return 2; });
  OnceCacheStats Phase1 = C.stats();
  EXPECT_EQ(Phase1.Misses, 2u);
  EXPECT_EQ(Phase1.Hits, 1u);

  C.clear();
  OnceCacheStats AfterClear = C.stats();
  EXPECT_EQ(AfterClear.Misses, Phase1.Misses);
  EXPECT_EQ(AfterClear.Hits, Phase1.Hits);
  EXPECT_EQ(AfterClear.InFlightWaits, Phase1.InFlightWaits);

  // After the clear "a" is recomputed, with a new value.
  EXPECT_EQ(*C.get("a", [] { return 3; }), 3);
  EXPECT_EQ(*C.get("a", [] { return 4; }), 3);
  OnceCacheStats D = C.stats() - AfterClear;
  EXPECT_EQ(D.Misses, 1u);
  EXPECT_EQ(D.Hits, 1u);
  EXPECT_EQ(D.InFlightWaits, 0u);
}
