// Cross-mode determinism for the parallel evaluation core (DESIGN.md
// §14): for every bundled model, checking under SYMCEX_THREADS-style
// parallelism (CheckOptions::threads in {1, 2, 8}) crossed with care-set
// simplification, COI reduction and dynamic reordering must produce the
// SAME verdict, the SAME certified trace, and the byte-identical evidence
// bundle as the sequential engine.  Certification is force-enabled for
// every run, so each trace the parallel engine emits is independently
// re-checked against the raw relation.
//
// Why byte-identity is the right bar: the parallel sweeps slice the
// operand into disjoint cofactors on a thread-count-independent variable
// prefix and OR the per-slice results in fixed ascending order; image and
// preimage distribute over union, and canonicity turns "same function"
// into "same handle".  Every set the checker computes is therefore the
// identical BDD at any thread count, and everything derived from those
// sets -- verdicts, picked minterms, traces, bundles -- is identical
// bytes.  Any drift here is a parallelism bug, not noise.
//
// The suite also proves the failure paths: a budget abort landing inside
// a parallel run salvages to a typed kUnknown with an audit-clean
// manager (ResourceExhausted handling survives worker fan-out), and a
// checkpoint written by a parallel run resumes -- in parallel -- to the
// sequential baseline's bytes.

#include <array>
#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "certify/certify.hpp"
#include "core/checker.hpp"
#include "core/explain.hpp"
#include "ctl/formula.hpp"
#include "diag/metrics.hpp"
#include "evidence/evidence.hpp"
#include "guard/fault.hpp"
#include "guard/guard.hpp"
#include "models/models.hpp"
#include "ts/parallel.hpp"
#include "ts/transition_system.hpp"

namespace symcex {
namespace {

class ScopedCertify {
 public:
  ScopedCertify() : old_(certify::enabled()) { certify::set_enabled(true); }
  ~ScopedCertify() { certify::set_enabled(old_); }

 private:
  bool old_;
};

class ScopedDiag {
 public:
  ScopedDiag() : old_(diag::enabled()) {
    diag::set_enabled(true);
    diag::Registry::global().reset();
  }
  ~ScopedDiag() {
    diag::Registry::global().reset();
    diag::set_enabled(old_);
  }

 private:
  bool old_;
};

struct FaultGuard {
  explicit FaultGuard(const std::string& spec) {
    guard::FaultInjector::instance().configure(spec);
  }
  ~FaultGuard() { guard::FaultInjector::instance().clear(); }
};

using Builder = std::function<std::unique_ptr<ts::TransitionSystem>()>;

struct ModelCase {
  const char* name;
  Builder build;
  /// Two specs per model, chosen so both a passing and a failing (or
  /// witness-emitting) outcome appear somewhere in the battery.
  std::vector<const char*> specs;
};

std::vector<ModelCase> model_cases() {
  return {
      {"counter",
       [] { return models::counter({.width = 4}); },
       {"AG EF zero", "E [!max U max]"}},
      {"counter_mod",  // values >= 40 unreachable: a proper care set
       [] { return models::counter({.width = 6, .modulus = 40}); },
       {"AG !max", "EF wrap"}},
      {"counter_fair",
       [] {
         return models::counter(
             {.width = 3, .stutter = true, .fair_ticking = true});
       },
       {"AF max", "AG AF ticked"}},
      {"counter_bank",
       [] { return models::counter_bank({.banks = 4, .width = 2}); },
       {"AG EF all_zero", "EF all_max"}},
      {"peterson",
       [] { return models::peterson({}); },
       {"AG !(crit0 & crit1)", "AG (try0 -> AF crit0)"}},
      {"peterson_buggy",
       [] { return models::peterson({.buggy = true}); },
       {"AG !(crit0 & crit1)"}},
      {"philosophers",
       [] { return models::dining_philosophers({.count = 3}); },
       {"AG !(eat0 & eat1)", "AG (hungry0 -> AF eat0)"}},
      {"round_robin",
       [] { return models::round_robin_arbiter({.users = 3}); },
       {"AG (req0 -> AF gnt0)", "AG !(gnt0 & gnt1)"}},
      {"abp",
       [] { return models::abp({}); },
       {"AG EF accept", "AG AF accept"}},
      {"seitz_arbiter",
       [] { return models::seitz_arbiter({}); },
       {"AG (r1 -> AF a1)", "AG !(g1 & g2)"}},
      {"scc_chain",
       [] { return models::scc_chain({}); },
       {"EG true", "EF in_cycle"}},
  };
}

/// One point of the care x COI x reorder cube.  All eight corners are
/// present; the image method alternates across them so both the
/// monolithic and the clustered sweeps run parallel under every flag.
struct Mode {
  const char* name;
  ts::ImageMethod method;
  bool care;
  bool coi;
  bool reorder;
};

std::vector<Mode> modes() {
  const auto mono = ts::ImageMethod::kMonolithic;
  const auto part = ts::ImageMethod::kPartitioned;
  return {
      {"mono", mono, false, false, false},
      {"mono+care", mono, true, false, false},
      {"part+coi", part, false, true, false},
      {"part+care+coi", part, true, true, false},
      {"mono+reorder", mono, false, false, true},
      {"part+care+reorder", part, true, false, true},
      {"part+coi+reorder", part, false, true, true},
      {"mono+care+coi+reorder", mono, true, true, true},
  };
}

/// One spec's complete observable outcome, rendered so it compares across
/// independently built systems (and thus across BDD managers and thread
/// counts).  The bundle JSON embeds the trace and its certificates, so
/// byte-equal snapshots mean byte-equal certified evidence.
struct Snapshot {
  bool holds = false;
  std::string trace;   // full rendering; empty when no trace was emitted
  std::string bundle;  // evidence bundle JSON
};

std::vector<Snapshot> run_mode(const ModelCase& mc, const Mode& mode,
                               unsigned threads) {
  auto sys = mc.build();
  core::Checker checker(*sys, {.image_method = mode.method,
                               .use_care_set = mode.care,
                               .reorder = mode.reorder,
                               .threads = threads,
                               .coi = mode.coi,
                               .model_name = mc.name});
  core::Explainer explainer(checker);
  std::vector<Snapshot> out;
  out.reserve(mc.specs.size());
  for (const char* spec_text : mc.specs) {
    const ctl::Formula::Ptr spec = ctl::parse(spec_text);
    const core::Explanation e = explainer.explain(spec);
    Snapshot snap;
    snap.holds = e.holds;
    if (e.trace) snap.trace = e.trace->to_string(*sys);
    snap.bundle = evidence::from_explanation(*sys, mc.name,
                                             ctl::to_string(spec), e)
                      .to_json();
    out.push_back(std::move(snap));
  }
  EXPECT_EQ(sys->manager().audit_check(), "")
      << mc.name << " under " << mode.name << " x" << threads;
  return out;
}

void expect_same(const ModelCase& mc, const Mode& mode, unsigned threads,
                 const std::vector<Snapshot>& base,
                 const std::vector<Snapshot>& got) {
  ASSERT_EQ(base.size(), got.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    const auto where = [&] {
      return std::string(mc.name) + " / " + mc.specs[i] + " under " +
             mode.name + " x" + std::to_string(threads);
    };
    EXPECT_EQ(base[i].holds, got[i].holds) << where();
    EXPECT_EQ(base[i].trace, got[i].trace) << where();
    EXPECT_EQ(base[i].bundle, got[i].bundle) << where();
  }
}

TEST(ParallelCrossMode, ByteIdenticalEvidenceOnEveryModelAndMode) {
  ScopedCertify certify_every_trace;
  for (const auto& mc : model_cases()) {
    SCOPED_TRACE(mc.name);
    for (const auto& mode : modes()) {
      SCOPED_TRACE(mode.name);
      const auto base = run_mode(mc, mode, 1);  // sequential reference
      for (const unsigned threads : {2u, 8u}) {
        expect_same(mc, mode, threads, base, run_mode(mc, mode, threads));
      }
    }
  }
}

// The fan-out is real, not vacuously sequential: on a model with wide
// frontiers the sliced sweep engages and reports itself in the metrics
// registry (recorded from multiple threads -- the same counters the
// 8-thread diag hammer test exercises in isolation).
TEST(ParallelCrossMode, SlicedSweepsActuallyEngage) {
  ScopedCertify certify_every_trace;
  ScopedDiag diag_on;
  auto sys = models::counter_bank({.banks = 8, .width = 2});
  core::Checker checker(*sys, {.threads = 4});
  EXPECT_EQ(checker.context().threads(), 4u);
  const core::CheckOutcome out = checker.check("AG EF all_zero");
  EXPECT_EQ(out.verdict, core::Verdict::kTrue);
  const auto& r = diag::Registry::global();
  EXPECT_GE(r.counter("parallel", "sweeps"), 1u)
      << "no sweep fanned out -- slicing thresholds swallowed the model";
  EXPECT_GE(r.counter("parallel", "slices"),
            r.counter("parallel", "sweeps"));
  EXPECT_EQ(sys->manager().audit_check(), "");
}

// Budget abort under a parallel sweep: an injected deadline fires at an
// apply site -- under fan-out that is a WORKER's probe -- the region
// flags the abort, peers unwind as WorkerCancelled, the coordinator
// recovers the table and rethrows, and the checker salvages the typed
// kUnknown exactly as the sequential engine does: audit-clean, and
// rerunnable once the fault is gone.  (The hard node ceiling takes the
// same path: mk enforces it on the concurrent branch too.)
TEST(ParallelCrossMode, BudgetAbortUnderParallelSweepSalvages) {
  ScopedCertify certify_every_trace;
  ScopedDiag diag_on;
  auto sys = models::counter_bank({.banks = 8, .width = 2});
  core::Checker checker(*sys, {.threads = 4});
  {
    // Countdown deep enough that sweeps have fanned out by the time it
    // fires (asserted below), small enough to land mid-fixpoint.
    FaultGuard fault("deadline@apply:100");
    const core::CheckOutcome unknown = checker.check("AG EF all_zero");
    EXPECT_EQ(unknown.verdict, core::Verdict::kUnknown);
    ASSERT_TRUE(unknown.exhausted.has_value());
    EXPECT_EQ(*unknown.exhausted, guard::Resource::kTime);
    EXPECT_FALSE(unknown.reason.empty());
    EXPECT_GE(diag::Registry::global().counter("parallel", "sweeps"), 1u)
        << "the fault fired before any sweep fanned out";
    EXPECT_EQ(sys->manager().audit_check(), "")
        << "parallel abort left the table dirty";
  }
  const core::CheckOutcome known = checker.check("AG EF all_zero");
  EXPECT_EQ(known.verdict, core::Verdict::kTrue);
  EXPECT_EQ(sys->manager().audit_check(), "");
}

// Checkpoint/resume round-trip under parallelism: a parallel run is
// interrupted mid-fixpoint by a deterministic injected fault, writes a
// checkpoint, and a parallel resume completes to bytes identical to an
// uninterrupted SEQUENTIAL baseline -- the snapshot format is thread-
// count-free and the resumed fixpoints reconverge to the same sets.
TEST(ParallelCrossMode, CheckpointResumeRoundTripsUnderThreads) {
  ScopedCertify certify_every_trace;
  const std::string dir = ::testing::TempDir() + "symcex_parallel_resume";
  ::mkdir(dir.c_str(), 0755);

  const auto build = [] {
    return models::counter_bank({.banks = 3, .width = 2});
  };
  const ctl::Formula::Ptr spec = ctl::parse("AG EF all_zero");
  const std::string formula = ctl::to_string(spec);

  // Sequential, uninterrupted baseline.
  std::string baseline_json;
  {
    auto sys = build();
    core::Checker ck(*sys, {.model_name = "par_resume"});
    core::Explainer ex(ck);
    baseline_json =
        evidence::from_explanation(*sys, "par_resume", formula, ex.explain(spec))
            .to_json();
  }

  // Parallel run interrupted by a deterministic fault on a fixpoint site
  // (FixpointGuard ticks on the coordinator only, so the interruption
  // point does not depend on worker scheduling).
  std::string checkpoint;
  {
    auto sys = build();
    core::Checker ck(*sys, {.threads = 4,
                            .checkpoint_dir = dir,
                            .model_name = "par_resume"});
    core::Explainer ex(ck);
    FaultGuard fault("deadline@reachable:2,deadline@eu:2,deadline@eg:2");
    const core::CheckOutcome out = ex.check(spec);
    ASSERT_EQ(out.verdict, core::Verdict::kUnknown);
    ASSERT_FALSE(out.checkpoint_path.empty());
    checkpoint = out.checkpoint_path;
  }

  // Parallel resume: finish the check with 4 workers again.
  core::ResumedCheck resumed = core::resume_check(checkpoint, [] {
    core::CheckOptions extra;
    extra.threads = 4;
    return extra;
  }());
  EXPECT_EQ(resumed.checker->context().threads(), 4u);
  core::Explainer ex(*resumed.checker);
  const std::string resumed_json =
      evidence::from_explanation(*resumed.system, resumed.model_name,
                                 resumed.formula, ex.explain(resumed.spec))
          .to_json();
  EXPECT_EQ(resumed_json, baseline_json)
      << "parallel resume drifted from the sequential baseline";
  EXPECT_EQ(resumed.system->manager().audit_check(), "");
}

// run() must not return while a worker that took the batch is still on
// its way into it: such a worker reads the caller's task vector, which
// the caller may destroy or refill as soon as run() returns.  The caller
// here reuses one task vector whose size alternates between rounds, so a
// late worker from a short round would find the next, longer round's
// tasks and run one of them outside any batch: that task's call count
// reaches two (or the stray write past the old batch's result vector
// crashes the process).
TEST(ParallelExecutor, RunReturnsOnlyAfterEveryWorkerLeftTheBatch) {
  bdd::Manager mgr(2);
  // More workers than cores: a worker is then often preempted between
  // taking the batch and entering it, which opens the window.
  ts::ParallelExecutor exec(mgr, 16);
  std::vector<std::function<bdd::Bdd()>> tasks;
  constexpr std::size_t kMaxTasks = 64;
  std::array<std::atomic<int>, kMaxTasks> calls{};
  for (int round = 0; round < 20000; ++round) {
    const std::size_t n = round % 2 == 0 ? 2 : kMaxTasks;
    for (auto& c : calls) c.store(0);
    tasks.clear();
    for (std::size_t i = 0; i < n; ++i) {
      tasks.push_back([&calls, i] {
        calls[i].fetch_add(1);
        std::this_thread::yield();
        return bdd::Bdd();
      });
    }
    const std::vector<bdd::Bdd> results = exec.run(tasks);
    ASSERT_EQ(results.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(calls[i].load(), 1) << "round " << round << ", task " << i;
    }
  }
  EXPECT_FALSE(mgr.in_parallel_region());
  EXPECT_EQ(mgr.audit_check(), "");
}

}  // namespace
}  // namespace symcex
