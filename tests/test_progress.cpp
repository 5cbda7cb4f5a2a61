// Live solve introspection (docs/ALGORITHMS.md §18): progress snapshot
// streaming, convergence telemetry, and cooperative cancellation/deadlines.
//
// The load-bearing property is the determinism contract: a cancelled run's
// completed rounds must be bit-identical to the same prefix of an
// uncancelled run, at any thread count, and binding a reporter must not
// change what the solver computes.

#include "obs/progress.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/bounds.h"
#include "core/ea.h"
#include "core/greedy.h"
#include "core/sandwich.h"
#include "core/sigma.h"
#include "helpers.h"
#include "obs/context.h"
#include "util/cancel.h"

namespace {

using msc::core::CandidateSet;
using msc::core::GreedyResult;
using msc::core::greedyMaximize;
using msc::core::Instance;
using msc::core::SigmaEvaluator;
using msc::obs::ProgressReporter;
using msc::obs::ProgressSnapshot;
using msc::obs::RequestContext;
using msc::obs::ScopedRequestBind;
using msc::util::CancelReason;
using msc::util::CancelToken;

/// Snapshot copy that owns nothing ProgressSnapshot points at (solver/stage
/// are string literals, safe to keep).
struct Snap {
  const char* solver;
  std::string stage;
  int round;
  int totalRounds;
  double value;
  std::uint64_t gainEvals;
  double etaSeconds;
  double roundsPerSecond;
  std::uint64_t seq;
};

Snap copySnap(const ProgressSnapshot& s) {
  return Snap{s.solver,     s.stage,           s.round,
              s.totalRounds, s.value,          s.gainEvals,
              s.etaSeconds, s.roundsPerSecond, s.seq};
}

/// Binds a RequestContext carrying a reporter (and optionally a token) to
/// the current thread for the scope.
struct BoundProgress {
  explicit BoundProgress(ProgressReporter::Sink sink, CancelToken* token = nullptr,
                         double everyMs = 0.0)
      : reporter(std::move(sink), everyMs), ctx("test") {
    ctx.setProgress(&reporter);
    if (token != nullptr) ctx.setCancelToken(token);
    bind.emplace(&ctx);
  }
  ProgressReporter reporter;
  RequestContext ctx;
  std::optional<ScopedRequestBind> bind;
};

// ------------------------------------------------ reporter unit tests ----

TEST(ProgressReporter, FillsSeqAndConvergenceFields) {
  std::vector<Snap> got;
  ProgressReporter rep([&](const ProgressSnapshot& s) { got.push_back(copySnap(s)); },
                       /*everyMs=*/0.0);
  for (int round = 1; round <= 3; ++round) {
    ProgressSnapshot s;
    s.solver = "unit";
    s.round = round;
    s.totalRounds = 3;
    s.value = static_cast<double>(round);
    s.gainEvals = static_cast<std::uint64_t>(10 * round);
    rep.report(s);
  }
  ASSERT_EQ(got.size(), 3u);
  // seq is the 1-based delivery number.
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].seq, i + 1);
  }
  // Round 1 has no timing history: ETA unknown, rate unknown.
  EXPECT_LT(got[0].etaSeconds, 0.0);
  EXPECT_DOUBLE_EQ(got[0].roundsPerSecond, 0.0);
  // From round 2 on the EWMA is primed: rate positive, ETA non-negative,
  // and exactly 0 at the final round (nothing left to do).
  for (std::size_t i = 1; i < got.size(); ++i) {
    EXPECT_GT(got[i].roundsPerSecond, 0.0);
    EXPECT_GE(got[i].etaSeconds, 0.0);
  }
  EXPECT_DOUBLE_EQ(got.back().etaSeconds, 0.0);
  EXPECT_EQ(rep.offered(), 3u);
  EXPECT_EQ(rep.emitted(), 3u);
}

TEST(ProgressReporter, RateLimitCountsButDoesNotDeliver) {
  std::vector<Snap> got;
  // A one-hour window: only the first snapshot (and forced ones) pass.
  ProgressReporter rep([&](const ProgressSnapshot& s) { got.push_back(copySnap(s)); },
                       /*everyMs=*/3.6e6);
  for (int round = 1; round <= 5; ++round) {
    ProgressSnapshot s;
    s.solver = "unit";
    s.round = round;
    rep.report(s);
  }
  EXPECT_EQ(rep.offered(), 5u);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].round, 1);

  ProgressSnapshot last;
  last.solver = "unit";
  last.round = 6;
  rep.report(last, /*force=*/true);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1].round, 6);
  EXPECT_EQ(got[1].seq, 2u);
  EXPECT_EQ(rep.emitted(), 2u);
}

TEST(ProgressReporter, ProcessCountersAdvance) {
  const auto& metrics = msc::obs::progressMetrics();
  const std::uint64_t snapshots = metrics.snapshots.value();
  const std::uint64_t events = metrics.events.value();
  ProgressReporter rep([](const ProgressSnapshot&) {}, 0.0);
  ProgressSnapshot s;
  s.solver = "unit";
  s.round = 1;
  rep.report(s);
  EXPECT_GE(metrics.snapshots.value(), snapshots + 1);
  EXPECT_GE(metrics.events.value(), events + 1);
}

TEST(ProgressStage, ScopedLabelNestsAndRestores) {
  EXPECT_STREQ(msc::obs::currentProgressStage(), "");
  {
    msc::obs::ScopedProgressStage outer("mu");
    EXPECT_STREQ(msc::obs::currentProgressStage(), "mu");
    {
      msc::obs::ScopedProgressStage inner("nu");
      EXPECT_STREQ(msc::obs::currentProgressStage(), "nu");
    }
    EXPECT_STREQ(msc::obs::currentProgressStage(), "mu");
  }
  EXPECT_STREQ(msc::obs::currentProgressStage(), "");
}

// ---------------------------------------------- cancel token unit tests --

TEST(CancelToken, FirstReasonWins) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::None);
  token.requestCancel(CancelReason::Client);
  token.requestCancel(CancelReason::Deadline);  // no-op: first reason sticks
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::Client);
}

TEST(CancelToken, NonPositiveDeadlineFiresImmediately) {
  CancelToken token;
  token.setDeadlineAfterSeconds(0.0);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::Deadline);
  EXPECT_DOUBLE_EQ(token.deadlineSeconds(), 0.0);
}

TEST(CancelToken, FarDeadlineDoesNotFire) {
  CancelToken token;
  token.setDeadlineAfterSeconds(3600.0);
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::None);
  EXPECT_DOUBLE_EQ(token.deadlineSeconds(), 3600.0);
}

TEST(CancelToken, ReasonNames) {
  EXPECT_STREQ(msc::util::cancelReasonName(CancelReason::None), "");
  EXPECT_STREQ(msc::util::cancelReasonName(CancelReason::Client), "client");
  EXPECT_STREQ(msc::util::cancelReasonName(CancelReason::Deadline), "deadline");
}

TEST(ScopedChunkCancel, NestsAndRestores) {
  EXPECT_EQ(msc::util::ScopedChunkCancel::current(), nullptr);
  CancelToken a, b;
  {
    msc::util::ScopedChunkCancel outer(&a);
    EXPECT_EQ(msc::util::ScopedChunkCancel::current(), &a);
    {
      msc::util::ScopedChunkCancel inner(&b);
      EXPECT_EQ(msc::util::ScopedChunkCancel::current(), &b);
    }
    EXPECT_EQ(msc::util::ScopedChunkCancel::current(), &a);
  }
  EXPECT_EQ(msc::util::ScopedChunkCancel::current(), nullptr);
}

// ------------------------------------------- solver integration tests ----

class ProgressThreads : public ::testing::TestWithParam<int> {};

TEST_P(ProgressThreads, GreedySnapshotsAreMonotoneAndMatchTrajectory) {
  const int threads = GetParam();
  const auto inst = msc::test::randomInstance(40, 12, 1.2, 7);
  const auto cands = CandidateSet::allPairs(40);

  std::vector<Snap> snaps;
  SigmaEvaluator eval(inst);
  GreedyResult result;
  {
    BoundProgress bound(
        [&](const ProgressSnapshot& s) { snaps.push_back(copySnap(s)); });
    result = greedyMaximize(eval, cands, {.k = 5, .threads = threads});
  }

  // One snapshot per committed round, in order, values exactly the
  // trajectory the solver returned.
  ASSERT_EQ(snaps.size(), static_cast<std::size_t>(result.rounds));
  ASSERT_EQ(result.trajectory.size(), snaps.size());
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    EXPECT_STREQ(snaps[i].solver, "greedy");
    EXPECT_EQ(snaps[i].round, static_cast<int>(i) + 1);
    EXPECT_EQ(snaps[i].totalRounds, 5);
    EXPECT_EQ(snaps[i].seq, i + 1);
    EXPECT_DOUBLE_EQ(snaps[i].value, result.trajectory[i]);
    if (i > 0) {
      EXPECT_GE(snaps[i].value, snaps[i - 1].value);
      EXPECT_GE(snaps[i].gainEvals, snaps[i - 1].gainEvals);
    }
  }
  EXPECT_EQ(snaps.back().gainEvals, result.gainEvaluations);
  EXPECT_EQ(result.interrupted, CancelReason::None);
}

TEST_P(ProgressThreads, EtaIsSaneFromRoundTwoOn) {
  const int threads = GetParam();
  const auto inst = msc::test::randomInstance(40, 12, 1.2, 11);
  const auto cands = CandidateSet::allPairs(40);

  std::vector<Snap> snaps;
  SigmaEvaluator eval(inst);
  {
    BoundProgress bound(
        [&](const ProgressSnapshot& s) { snaps.push_back(copySnap(s)); });
    (void)greedyMaximize(eval, cands, {.k = 4, .threads = threads});
  }
  ASSERT_GE(snaps.size(), 2u);
  EXPECT_LT(snaps[0].etaSeconds, 0.0);  // unknown before the EWMA is primed
  for (std::size_t i = 1; i < snaps.size(); ++i) {
    EXPECT_GT(snaps[i].roundsPerSecond, 0.0);
    EXPECT_GE(snaps[i].etaSeconds, 0.0);
    // ETA is (remaining rounds) x EWMA — it cannot exceed the remaining
    // round count times any sane per-round bound; just check it shrinks to
    // exactly 0 once the last scheduled round committed.
    if (snaps[i].round == snaps[i].totalRounds) {
      EXPECT_DOUBLE_EQ(snaps[i].etaSeconds, 0.0);
    }
  }
}

/// Cancelling at a round boundary must leave exactly the completed-round
/// prefix, bit-identical to the uncancelled run, at any thread count.
TEST_P(ProgressThreads, GreedyCancelAtRoundBoundaryKeepsBitIdenticalPrefix) {
  const int threads = GetParam();
  const auto inst = msc::test::randomInstance(48, 14, 1.2, 13);
  const auto cands = CandidateSet::allPairs(48);
  constexpr int kCancelAfterRound = 2;

  SigmaEvaluator full(inst);
  const GreedyResult reference =
      greedyMaximize(full, cands, {.k = 5, .threads = threads});
  ASSERT_GT(reference.rounds, kCancelAfterRound);

  CancelToken token;
  std::vector<Snap> snaps;
  SigmaEvaluator eval(inst);
  GreedyResult cancelled;
  {
    BoundProgress bound(
        [&](const ProgressSnapshot& s) {
          snaps.push_back(copySnap(s));
          if (s.round == kCancelAfterRound) token.requestCancel();
        },
        &token);
    cancelled = greedyMaximize(eval, cands, {.k = 5, .threads = threads});
  }

  EXPECT_EQ(cancelled.interrupted, CancelReason::Client);
  EXPECT_EQ(cancelled.rounds, kCancelAfterRound);
  ASSERT_EQ(cancelled.placement.size(),
            static_cast<std::size_t>(kCancelAfterRound));
  for (int i = 0; i < kCancelAfterRound; ++i) {
    EXPECT_EQ(cancelled.placement[i], reference.placement[i]) << "round " << i;
    EXPECT_DOUBLE_EQ(cancelled.trajectory[i], reference.trajectory[i]);
  }
  EXPECT_DOUBLE_EQ(cancelled.value, reference.trajectory[kCancelAfterRound - 1]);
  EXPECT_EQ(snaps.size(), static_cast<std::size_t>(kCancelAfterRound));
}

/// A cancel inside the sandwich's nu pass (the first) keeps the nu pass's
/// committed rounds bit-identical to the uncancelled run, stops the mu and
/// sigma passes before their first pick, and certifies no bound.
TEST_P(ProgressThreads, SandwichNuCancelKeepsBitIdenticalPrefix) {
  const int threads = GetParam();
  const auto inst = msc::test::randomInstance(40, 12, 0.8, 17);
  const auto cands = CandidateSet::allPairs(40);
  constexpr int kCancelAfterRound = 2;
  const msc::core::SolveOptions options{.k = 5, .threads = threads};

  const msc::core::SandwichResult reference =
      msc::core::sandwichApproximation(inst, cands, options);
  ASSERT_GT(reference.placementNu.size(),
            static_cast<std::size_t>(kCancelAfterRound));

  CancelToken token;
  msc::core::SandwichResult cancelled;
  {
    BoundProgress bound(
        [&](const ProgressSnapshot& s) {
          if (s.round == kCancelAfterRound &&
              std::strcmp(s.solver, "greedy") == 0 &&
              std::strcmp(s.stage, "nu") == 0) {
            token.requestCancel();
          }
        },
        &token);
    cancelled = msc::core::sandwichApproximation(inst, cands, options);
  }

  EXPECT_EQ(cancelled.interrupted, CancelReason::Client);
  EXPECT_TRUE(cancelled.placementMu.empty());
  EXPECT_TRUE(cancelled.placementSigma.empty());
  const msc::core::ShortcutList prefix(
      reference.placementNu.begin(),
      reference.placementNu.begin() + kCancelAfterRound);
  EXPECT_EQ(cancelled.placementNu, prefix);
  const msc::core::NuEvaluator nu(inst);
  EXPECT_EQ(cancelled.nuOfFnu, nu.value(prefix));
  EXPECT_FALSE(cancelled.certifiedUpperBound.has_value());
}

TEST_P(ProgressThreads, DeadlineFiresBeforeFirstRound) {
  const int threads = GetParam();
  const auto inst = msc::test::randomInstance(30, 10, 1.2, 19);
  const auto cands = CandidateSet::allPairs(30);

  CancelToken token;
  token.setDeadlineAfterSeconds(0.0);  // already expired when the solve starts
  RequestContext ctx("test");
  ctx.setCancelToken(&token);
  SigmaEvaluator eval(inst);
  GreedyResult result;
  {
    ScopedRequestBind bind(&ctx);
    result = greedyMaximize(eval, cands, {.k = 3, .threads = threads});
  }
  EXPECT_EQ(result.interrupted, CancelReason::Deadline);
  EXPECT_EQ(result.rounds, 0);
  EXPECT_TRUE(result.placement.empty());
}

/// Binding a reporter must not change anything the solver computes — the
/// zero-perturbation half of the §18 contract. (The unbound direction —
/// no context at all — is the baseline here.)
TEST_P(ProgressThreads, BoundReporterIsBitIdenticalToUnboundRun) {
  const int threads = GetParam();
  const auto inst = msc::test::randomInstance(40, 12, 1.2, 23);
  const auto cands = CandidateSet::allPairs(40);

  ASSERT_EQ(msc::obs::currentProgress(), nullptr);
  ASSERT_EQ(msc::obs::currentCancelToken(), nullptr);
  SigmaEvaluator unboundEval(inst);
  const GreedyResult unbound =
      greedyMaximize(unboundEval, cands, {.k = 5, .threads = threads});

  SigmaEvaluator boundEval(inst);
  GreedyResult bound;
  {
    BoundProgress bp([](const ProgressSnapshot&) {});
    bound = greedyMaximize(boundEval, cands, {.k = 5, .threads = threads});
  }

  EXPECT_EQ(bound.placement, unbound.placement);
  EXPECT_DOUBLE_EQ(bound.value, unbound.value);
  ASSERT_EQ(bound.trajectory.size(), unbound.trajectory.size());
  for (std::size_t i = 0; i < bound.trajectory.size(); ++i) {
    EXPECT_DOUBLE_EQ(bound.trajectory[i], unbound.trajectory[i]);
  }
  EXPECT_EQ(bound.gainEvaluations, unbound.gainEvaluations);
  EXPECT_EQ(bound.interrupted, CancelReason::None);
}

INSTANTIATE_TEST_SUITE_P(Threads, ProgressThreads, ::testing::Values(1, 4));

// ------------------------------------------------------- sandwich/EA -----

TEST(SandwichProgress, StagesReportAndCompletedRunCertifiesBound) {
  const auto inst = msc::test::randomInstance(36, 10, 1.2, 29);
  const auto cands = CandidateSet::allPairs(36);

  std::set<std::string> stages;
  msc::core::SandwichResult result;
  {
    BoundProgress bound([&](const ProgressSnapshot& s) {
      if (s.stage[0] != '\0') stages.insert(s.stage);
    });
    result = msc::core::sandwichApproximation(inst, cands, {.k = 3});
  }
  EXPECT_EQ(result.interrupted, CancelReason::None);
  // All three bound passes ran under their stage labels.
  EXPECT_TRUE(stages.count("mu"));
  EXPECT_TRUE(stages.count("sigma"));
  EXPECT_TRUE(stages.count("nu"));
  // A completed nu pass certifies sigma(F*) <= nu(F_nu)/(1-1/e), so the
  // achieved sigma can never exceed it.
  ASSERT_TRUE(result.certifiedUpperBound.has_value());
  EXPECT_GE(*result.certifiedUpperBound, result.sigma - 1e-9);
  EXPECT_DOUBLE_EQ(*result.certifiedUpperBound,
                   result.nuOfFnu / (1.0 - std::exp(-1.0)));
}

TEST(SandwichProgress, InterruptedRunCertifiesNothingWithoutNuPass) {
  const auto inst = msc::test::randomInstance(36, 10, 1.2, 31);
  const auto cands = CandidateSet::allPairs(36);

  CancelToken token;
  token.requestCancel(CancelReason::Client);  // cancelled before it starts
  RequestContext ctx("test");
  ctx.setCancelToken(&token);
  msc::core::SandwichResult result;
  {
    ScopedRequestBind bind(&ctx);
    result = msc::core::sandwichApproximation(inst, cands, {.k = 3});
  }
  EXPECT_EQ(result.interrupted, CancelReason::Client);
  // The nu pass never completed: no certified bound may be claimed.
  EXPECT_FALSE(result.certifiedUpperBound.has_value());
}

TEST(EaProgress, GenerationTelemetryAndCancelStopsAtGenerationBoundary) {
  const auto inst = msc::test::randomInstance(24, 8, 1.2, 37);
  const auto cands = CandidateSet::allPairs(24);
  SigmaEvaluator sigma(inst);

  msc::core::EaConfig config;
  config.iterations = 200;
  constexpr int kCancelAtGeneration = 10;

  CancelToken token;
  int snapshots = 0;
  msc::core::EaResult result;
  {
    BoundProgress bound(
        [&](const ProgressSnapshot& s) {
          ASSERT_STREQ(s.solver, "ea");
          ++snapshots;
          if (s.round == kCancelAtGeneration) token.requestCancel();
        },
        &token);
    result = msc::core::evolutionaryAlgorithm(sigma, cands,
                                              {.k = 3, .seed = 5}, config);
  }
  EXPECT_EQ(result.interrupted, CancelReason::Client);
  EXPECT_EQ(result.iterations, kCancelAtGeneration);
  EXPECT_EQ(result.bestByIteration.size(),
            static_cast<std::size_t>(kCancelAtGeneration));
  EXPECT_EQ(snapshots, kCancelAtGeneration);
}

}  // namespace
