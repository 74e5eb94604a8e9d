// Resume determinism matrix (DESIGN.md section 13): interrupt every
// bundled model mid-fixpoint with a deterministic injected fault, resume
// from the written checkpoint, and assert the resumed verdict, trace, and
// evidence bundle are BYTE-identical to an uninterrupted run's.  The
// matrix varies the fault countdown and the checker configuration
// (care-set x COI x reorder, both image methods) across cases, so every
// resume path -- completed-reachable install, in-flight frontier seeding,
// fair-states reuse -- is exercised somewhere.
//
// Why byte-identity is the right bar: a resumed fixpoint continues from
// one of its own iterates, so it converges to the same set; canonicity
// makes the sets the same handles; and pick_one_minterm is defined
// order-independently, so even a run that reordered differently renders
// the same trace.  Any drift here is a persistence bug, not noise.

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
#include "evidence/evidence.hpp"
#include "guard/fault.hpp"
#include "guard/guard.hpp"
#include "models/models.hpp"
#include "persist/persist.hpp"
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

struct FaultGuard {
  explicit FaultGuard(const std::string& spec) {
    guard::FaultInjector::instance().configure(spec);
  }
  ~FaultGuard() { guard::FaultInjector::instance().clear(); }
};

struct MatrixCase {
  const char* name;
  std::function<std::unique_ptr<ts::TransitionSystem>()> build;
  const char* spec;
  /// Fixpoint site + countdown for the injected deadline; every case arms
  /// all loop sites at the same countdown so whichever loop runs long
  /// enough first takes the hit.
  int countdown;
  bool care;
  bool coi;
  bool reorder;
  bool partitioned;
};

/// One matrix case: baseline (uninterrupted) vs fault -> checkpoint ->
/// resume.  Returns through gtest assertions.
void run_case(const MatrixCase& c) {
  SCOPED_TRACE(c.name);
  const std::string dir =
      ::testing::TempDir() + "symcex_resume_" + c.name;
  ::mkdir(dir.c_str(), 0755);

  core::CheckOptions base;
  base.image_method = c.partitioned ? ts::ImageMethod::kPartitioned
                                    : ts::ImageMethod::kMonolithic;
  base.use_care_set = c.care;
  base.coi = c.coi;
  base.reorder = c.reorder;
  base.model_name = c.name;

  // The canonical spec string both bundles must carry.
  const ctl::Formula::Ptr spec = ctl::parse(c.spec);
  const std::string formula = ctl::to_string(spec);

  // Uninterrupted run: verdict, trace, bundle.
  std::string baseline_json;
  bool baseline_holds = false;
  bool baseline_has_trace = false;
  {
    auto sys = c.build();
    core::Checker ck(*sys, base);
    core::Explainer ex(ck);
    const core::Explanation e = ex.explain(spec);
    baseline_holds = e.holds;
    baseline_has_trace = e.trace.has_value();
    baseline_json =
        evidence::from_explanation(*sys, c.name, formula, e).to_json();
  }

  // Interrupted run: every fixpoint site armed at the case's countdown.
  std::string checkpoint;
  {
    auto sys = c.build();
    core::CheckOptions opt = base;
    opt.checkpoint_dir = dir;
    core::Checker ck(*sys, opt);
    core::Explainer ex(ck);
    const std::string k = std::to_string(c.countdown);
    FaultGuard fault("deadline@reachable:" + k + ",deadline@eu:" + k +
                     ",deadline@eu_rings:" + k + ",deadline@eg:" + k +
                     ",deadline@fair_eg_rings:" + k);
    const core::CheckOutcome out = ex.check(spec);
    ASSERT_EQ(out.verdict, core::Verdict::kUnknown)
        << "fault countdown " << c.countdown
        << " never fired -- raise it or pick a longer-running spec";
    ASSERT_FALSE(out.checkpoint_path.empty());
    checkpoint = out.checkpoint_path;
  }

  // Resume: load, finish, re-derive the bundle.  Everything must match.
  core::ResumedCheck resumed = core::resume_check(checkpoint);
  EXPECT_EQ(resumed.model_name, c.name);
  EXPECT_EQ(resumed.formula, formula);
  core::Explainer ex(*resumed.checker);
  const core::Explanation e = ex.explain(resumed.spec);
  EXPECT_EQ(e.holds, baseline_holds);
  EXPECT_EQ(e.trace.has_value(), baseline_has_trace);
  const std::string resumed_json =
      evidence::from_explanation(*resumed.system, resumed.model_name,
                                 resumed.formula, e)
          .to_json();
  EXPECT_EQ(resumed_json, baseline_json) << "resumed bundle drifted";
  EXPECT_EQ(resumed.system->manager().audit_check(), "");
}

// One case per bundled model family, countdowns and configurations
// spread across the matrix.
//                         name            spec                      cd care  coi  reo  part
const std::vector<MatrixCase> kMatrix = {
    {"counter", [] { return models::counter({.width = 5}); },
     "AG EF zero", 4, false, false, false, false},
    {"counter_bank", [] { return models::counter_bank({.banks = 3,
                                                       .width = 2}); },
     "AG EF all_zero", 3, false, true, false, true},
    {"seitz_arbiter", [] { return models::seitz_arbiter({.fair_me = false}); },
     "AG (r1 -> AF a1)", 3, false, false, true, true},
    {"peterson", [] { return models::peterson(); },
     "AG !(crit0 & crit1)", 2, true, false, false, true},
    {"philosophers",
     [] { return models::dining_philosophers({.count = 3}); },
     "AG (hungry0 -> AF eat0)", 3, false, false, false, true},
    {"round_robin",
     [] { return models::round_robin_arbiter({.users = 3, .rotate = false}); },
     "AG (req1 -> AF gnt1)", 2, false, true, false, false},
    {"abp", [] { return models::abp({.fair_channels = false}); },
     "AG AF accept", 4, true, false, false, true},
    {"scc_chain",
     [] { return models::scc_chain({.chain_len = 4, .cycle_len = 4}); },
     "AF in_cycle", 2, false, false, false, false},
};

TEST(ResumeMatrix, EveryBundledModelResumesByteIdentical) {
  for (const MatrixCase& c : kMatrix) run_case(c);
}

// The care-set cases arm the reachability fixpoint too, so the interrupted
// run's care set falls back to exact sweeps and its checkpointed EU rings
// keep unreachable states that the resumed run's care-set sweeps drop.
// Certification makes the witness generator check every ring chain it
// walks for monotonicity: a resumed verdict EU that memoised the mixed
// sequence fails here.
TEST(ResumeMatrix, CareFallbackRingsAreNotReusedOnResume) {
  ScopedCertify certify_every_ring_chain;
  for (const MatrixCase& c : kMatrix) {
    if (c.care) run_case(c);
  }
}

// Varying the interruption point must not vary the result: the same case
// interrupted at different countdowns lands on the same bytes.
TEST(ResumeMatrix, DifferentInterruptionPointsSameBytes) {
  for (const int countdown : {2, 3, 5}) {
    MatrixCase c = kMatrix[0];  // counter, AG EF zero
    c.countdown = countdown;
    c.name = "counter_cd";
    SCOPED_TRACE(countdown);
    run_case(c);
  }
}

// A checkpoint can itself be interrupted and re-checkpointed: fault the
// resumed run too, resume again, and still land on the baseline bytes.
TEST(ResumeMatrix, DoubleInterruptionStillConverges) {
  const MatrixCase& c = kMatrix[0];
  const std::string dir = ::testing::TempDir() + "symcex_resume_double";
  ::mkdir(dir.c_str(), 0755);

  const ctl::Formula::Ptr spec = ctl::parse(c.spec);
  const std::string formula = ctl::to_string(spec);

  std::string baseline_json;
  {
    auto sys = c.build();
    core::Checker ck(*sys);
    core::Explainer ex(ck);
    baseline_json = evidence::from_explanation(*sys, "twice", formula,
                                               ex.explain(spec))
                        .to_json();
  }

  // First interruption.
  std::string checkpoint;
  {
    auto sys = c.build();
    core::CheckOptions opt;
    opt.checkpoint_dir = dir;
    opt.model_name = "twice";
    core::Checker ck(*sys, opt);
    core::Explainer ex(ck);
    FaultGuard fault("deadline@eu:2");
    const core::CheckOutcome out = ex.check(spec);
    ASSERT_EQ(out.verdict, core::Verdict::kUnknown);
    ASSERT_FALSE(out.checkpoint_path.empty());
    checkpoint = out.checkpoint_path;
  }

  // Second interruption, further along, from the resumed run.
  {
    core::ResumedCheck resumed =
        core::resume_check(checkpoint, [&] {
          core::CheckOptions extra;
          extra.checkpoint_dir = dir;
          return extra;
        }());
    core::Explainer ex(*resumed.checker);
    FaultGuard fault("deadline@eu:2");
    const core::CheckOutcome out = ex.check(resumed.spec);
    ASSERT_EQ(out.verdict, core::Verdict::kUnknown);
    ASSERT_FALSE(out.checkpoint_path.empty());
    checkpoint = out.checkpoint_path;
  }

  // Final resume completes to the baseline bytes.
  core::ResumedCheck resumed = core::resume_check(checkpoint);
  core::Explainer ex(*resumed.checker);
  const std::string resumed_json =
      evidence::from_explanation(*resumed.system, resumed.model_name,
                                 resumed.formula, ex.explain(resumed.spec))
          .to_json();
  EXPECT_EQ(resumed_json, baseline_json);
}

// One checkpoint file, many readers: the serve daemon warm-starts several
// sessions from snapshots concurrently, so load_check_snapshot must be
// safe to call from N threads on the same file, each load landing in its
// own manager and finishing to byte-identical evidence.
TEST(ResumeMatrix, ConcurrentSnapshotLoadsAreByteIdentical) {
  const MatrixCase& c = kMatrix[0];  // counter, AG EF zero
  const std::string dir = ::testing::TempDir() + "symcex_resume_conc";
  ::mkdir(dir.c_str(), 0755);

  const ctl::Formula::Ptr spec = ctl::parse(c.spec);
  const std::string formula = ctl::to_string(spec);

  std::string baseline_json;
  {
    auto sys = c.build();
    core::Checker ck(*sys);
    core::Explainer ex(ck);
    baseline_json = evidence::from_explanation(*sys, "conc", formula,
                                               ex.explain(spec))
                        .to_json();
  }

  std::string checkpoint;
  {
    auto sys = c.build();
    core::CheckOptions opt;
    opt.checkpoint_dir = dir;
    opt.model_name = "conc";
    core::Checker ck(*sys, opt);
    core::Explainer ex(ck);
    FaultGuard fault("deadline@eu:3");
    const core::CheckOutcome out = ex.check(spec);
    ASSERT_EQ(out.verdict, core::Verdict::kUnknown);
    ASSERT_FALSE(out.checkpoint_path.empty());
    checkpoint = out.checkpoint_path;
  }

  constexpr int kThreads = 4;
  std::vector<std::string> jsons(kThreads);
  std::vector<std::string> audits(kThreads, "unset");
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        // Each thread gets its own rebuilt system + manager; the file is
        // only ever read.
        core::ResumedCheck resumed = core::resume_check(checkpoint);
        core::Explainer ex(*resumed.checker);
        jsons[i] = evidence::from_explanation(*resumed.system,
                                              resumed.model_name,
                                              resumed.formula,
                                              ex.explain(resumed.spec))
                       .to_json();
        audits[i] = resumed.system->manager().audit_check();
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (int i = 0; i < kThreads; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(jsons[i], baseline_json);
    EXPECT_EQ(audits[i], "");
  }
}

}  // namespace
}  // namespace symcex
