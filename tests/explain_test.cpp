// Tests for the top-level counterexample/witness driver (Explainer):
// verdict + trace for the classic specification shapes, and the
// counterexample-is-witness-of-the-dual property on random models.

#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/explain.hpp"
#include "diag/metrics.hpp"
#include "evidence/evidence.hpp"
#include "models/models.hpp"
#include "test_util.hpp"

namespace symcex::core {
namespace {

/// Checks the basic contract: trace (if any) validates against the system
/// and starts in an initial state.
void expect_well_formed(const Explanation& e, ts::TransitionSystem& m) {
  if (!e.trace.has_value()) return;
  EXPECT_EQ(e.trace->validate(m), "");
  ASSERT_FALSE(e.trace->states().empty());
  EXPECT_TRUE(e.trace->states().front().implies(m.init()));
}

TEST(ExplainTest, AgCounterexampleReachesViolation) {
  auto m = models::counter({.width = 3});
  Checker ck(*m);
  Explainer ex(ck);
  const Explanation e = ex.explain("AG !max");
  EXPECT_FALSE(e.holds);
  ASSERT_TRUE(e.trace.has_value());
  expect_well_formed(e, *m);
  bool reaches = false;
  for (const auto& s : e.trace->states()) {
    reaches |= s.intersects(*m->label("max"));
  }
  EXPECT_TRUE(reaches);
}

TEST(ExplainTest, AgAfCounterexampleIsTheClassicLasso) {
  auto m = models::seitz_arbiter();  // buggy: starves side 1
  Checker ck(*m);
  Explainer ex(ck);
  const Explanation e = ex.explain("AG (r1 -> AF a1)");
  EXPECT_FALSE(e.holds);
  ASSERT_TRUE(e.trace.has_value());
  expect_well_formed(e, *m);
  ASSERT_TRUE(e.trace->is_lasso());
  // On the whole cycle the request stays up and the ack stays down --
  // the paper's "tr1 high, ta1 never rises" shape.
  for (const auto& s : e.trace->cycle) {
    EXPECT_TRUE(s.implies(*m->label("r1")));
    EXPECT_TRUE(s.implies(!*m->label("a1")));
  }
  // And the lasso is fair: every constraint recurs on the cycle.
  for (const auto& h : m->fairness()) {
    EXPECT_TRUE(e.trace->cycle_visits(h));
  }
}

TEST(ExplainTest, TrueUniversalHasNoTrace) {
  auto m = models::counter({.width = 2});
  Checker ck(*m);
  Explainer ex(ck);
  const Explanation e = ex.explain("AG EF zero");
  EXPECT_TRUE(e.holds);
  EXPECT_FALSE(e.trace.has_value());
  EXPECT_NE(e.note.find("no single-path witness"), std::string::npos);
}

TEST(ExplainTest, TrueExistentialGetsWitness) {
  auto m = models::counter({.width = 3});
  Checker ck(*m);
  Explainer ex(ck);
  const Explanation e = ex.explain("EF max");
  EXPECT_TRUE(e.holds);
  ASSERT_TRUE(e.trace.has_value());
  expect_well_formed(e, *m);
  bool reaches = false;
  for (const auto& s : e.trace->states()) {
    reaches |= s.intersects(*m->label("max"));
  }
  EXPECT_TRUE(reaches);
}

TEST(ExplainTest, EgWitnessIsALasso) {
  auto m = models::counter({.width = 2});
  Checker ck(*m);
  Explainer ex(ck);
  const Explanation e = ex.explain("EG true");
  EXPECT_TRUE(e.holds);
  ASSERT_TRUE(e.trace.has_value());
  EXPECT_TRUE(e.trace->is_lasso());
  expect_well_formed(e, *m);
}

TEST(ExplainTest, NestedExplanationsChainThroughExAndEu) {
  auto m = models::counter({.width = 3});
  Checker ck(*m);
  Explainer ex(ck);
  // EX EX (E [true U max]): one step, one step, then walk to max.
  const Explanation e = ex.explain("EX EX EF max");
  EXPECT_TRUE(e.holds);
  ASSERT_TRUE(e.trace.has_value());
  expect_well_formed(e, *m);
  EXPECT_TRUE(e.trace->at(7).implies(*m->label("max")));
}

TEST(ExplainTest, FalseExistentialPointsAtInitialState) {
  auto m = models::counter({.width = 2});
  Checker ck(*m);
  Explainer ex(ck);
  const Explanation e = ex.explain("EX zero & !zero");
  EXPECT_FALSE(e.holds);
  // No path evidence exists for a failing EX, but the initial state is
  // still reported.
  ASSERT_TRUE(e.trace.has_value());
  EXPECT_EQ(e.trace->length(), 1u);
}

TEST(ExplainTest, PropositionalFailure) {
  auto m = models::counter({.width = 2});
  Checker ck(*m);
  Explainer ex(ck);
  const Explanation e = ex.explain("!zero");
  EXPECT_FALSE(e.holds);
  ASSERT_TRUE(e.trace.has_value());
  EXPECT_TRUE(e.trace->states().front().implies(*m->label("zero")));
}

TEST(ExplainTest, AxCounterexampleStepsToTheBadSuccessor) {
  auto m = models::counter({.width = 2});
  Checker ck(*m);
  Explainer ex(ck);
  // AX max is false from 0: the successor 1 is not max.
  const Explanation e = ex.explain("AX max");
  EXPECT_FALSE(e.holds);
  ASSERT_TRUE(e.trace.has_value());
  expect_well_formed(e, *m);
  EXPECT_GE(e.trace->length(), 2u);
  EXPECT_TRUE(e.trace->at(1).implies(!*m->label("max")));
}

TEST(ExplainTest, AuCounterexample) {
  auto m = models::counter({.width = 3});
  Checker ck(*m);
  Explainer ex(ck);
  // A [ !max U zero & max ]: the target is unsatisfiable, so EG !target
  // provides the counterexample lasso.
  const Explanation e = ex.explain("A [!max U (zero & max)]");
  EXPECT_FALSE(e.holds);
  ASSERT_TRUE(e.trace.has_value());
  expect_well_formed(e, *m);
}

TEST(ExplainTest, ParseErrorsPropagate) {
  auto m = models::counter({.width = 2});
  Checker ck(*m);
  Explainer ex(ck);
  EXPECT_THROW((void)ex.explain("AG ("), ctl::ParseError);
}

TEST(ExplainTest, PetersonLivelockLasso) {
  auto m = models::peterson({.buggy = true});
  Checker ck(*m);
  Explainer ex(ck);
  const Explanation e = ex.explain("AG (try0 -> AF crit0)");
  EXPECT_FALSE(e.holds);
  ASSERT_TRUE(e.trace.has_value());
  ASSERT_TRUE(e.trace->is_lasso());
  // On the livelock cycle neither process is ever critical.
  for (const auto& s : e.trace->cycle) {
    EXPECT_TRUE(s.implies(!*m->label("crit0")));
  }
  // Scheduling fairness still holds on the cycle.
  for (const auto& h : m->fairness()) {
    EXPECT_TRUE(e.trace->cycle_visits(h));
  }
}

TEST(ExplainTest, PhilosopherStarvationLasso) {
  auto m = models::dining_philosophers({.count = 3});
  Checker ck(*m);
  Explainer ex(ck);
  const Explanation e = ex.explain("AG (hungry0 -> AF eat0)");
  EXPECT_FALSE(e.holds);
  ASSERT_TRUE(e.trace.has_value());
  ASSERT_TRUE(e.trace->is_lasso());
  for (const auto& s : e.trace->cycle) {
    EXPECT_TRUE(s.implies(!*m->label("eat0")));
  }
}

// ---------------------------------------------------------------------------
// Property: for random models and random specs, the verdict matches the
// checker, the trace validates, and a false universal spec's trace truly
// demonstrates the dual existential formula.
// ---------------------------------------------------------------------------

class ExplainProperty : public ::testing::TestWithParam<int> {};

TEST_P(ExplainProperty, TraceContract) {
  const unsigned seed = static_cast<unsigned>(GetParam());
  auto m = test::random_ts(seed, {.num_vars = 4, .num_fairness = seed % 2});
  Checker ck(*m);
  Explainer ex(ck);
  std::mt19937 rng(seed * 31 + 5);
  for (int round = 0; round < 10; ++round) {
    const auto f = test::random_ctl(rng);
    const Explanation e = ex.explain(f);
    EXPECT_EQ(e.holds, ck.holds(f)) << ctl::to_string(f);
    if (e.trace.has_value()) {
      EXPECT_EQ(e.trace->validate(*m), "")
          << ctl::to_string(f) << " seed " << seed;
      EXPECT_TRUE(e.trace->states().front().implies(m->init()));
      if (!e.holds) {
        // The first state genuinely violates the formula.
        EXPECT_FALSE(
            e.trace->states().front().intersects(ck.states(f)))
            << ctl::to_string(f);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExplainProperty, ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Section 6 ring reuse: explaining after checking walks the verdict's rings.
// ---------------------------------------------------------------------------

// Check-then-explain of AG !max: the verdict's E[true U max] fixpoint runs
// once, in the check.  The explanation's own EU iterations are exactly
// those a fresh explanation spends beyond that fixpoint (the cycle
// closure and the fair extension), and none of them runs outside the
// witness phases.
TEST(ExplainRingReuse, CheckThenExplainAddsNoVerdictEuIterations) {
  const bool diag_was = diag::enabled();
  diag::set_enabled(true);
  auto m = models::counter({.width = 5});

  Checker fresh_checker(*m);
  Explainer fresh(fresh_checker);
  const Explanation fresh_e = fresh.explain("AG !max");
  const std::size_t fresh_iterations = fresh_checker.stats().eu_iterations;

  Checker warm_checker(*m);
  Explainer warm(warm_checker);
  ASSERT_EQ(warm_checker.check("AG !max").verdict, Verdict::kFalse);
  const std::size_t verdict_iterations = warm_checker.stats().eu_iterations;
  ASSERT_GT(verdict_iterations, 0u);
  warm_checker.reset_stats();
  diag::Registry::global().reset();
  const Explanation warm_e = warm.explain("AG !max");
  const std::size_t explain_iterations = warm_checker.stats().eu_iterations;
  const std::uint64_t unphased_iterations =
      diag::Registry::global().counter("", "fixpoint.eu_iterations");
  diag::Registry::global().reset();
  diag::set_enabled(diag_was);

  EXPECT_EQ(explain_iterations + verdict_iterations, fresh_iterations);
  EXPECT_GE(warm_checker.stats().eu_reuse_hits, 1u);
  EXPECT_EQ(unphased_iterations, 0u)
      << "the explainer reran an EU fixpoint outside the witness phases";
  ASSERT_TRUE(warm_e.trace.has_value());
  ASSERT_TRUE(fresh_e.trace.has_value());
  EXPECT_EQ(warm_e.trace->prefix, fresh_e.trace->prefix);
  EXPECT_EQ(warm_e.trace->cycle, fresh_e.trace->cycle);
}

// A warm checker (every spec of the model checked, and explained, in turn
// on one Checker) renders the same bundle bytes as a fresh checker per
// spec: the reused rings are the rings a fresh run computes.
TEST(ExplainRingReuse, WarmCheckerGivesFreshBundleBytes) {
  struct Case {
    const char* name;
    std::function<std::unique_ptr<ts::TransitionSystem>()> build;
    std::vector<std::string> specs;
  };
  const std::vector<Case> cases = {
      {"counter", [] { return models::counter({.width = 4}); },
       {"AG !max", "EF max", "AG EF zero", "E [!max U max]"}},
      {"seitz_arbiter", [] { return models::seitz_arbiter(); },
       {"AG (r1 -> AF a1)", "EF a1", "AG !(g1 & g2)"}},
      {"scc_chain",
       [] { return models::scc_chain({.chain_len = 5, .cycle_len = 3}); },
       {"EG TRUE", "AF in_cycle", "EF in_cycle"}},
      {"philosophers", [] { return models::dining_philosophers({.count = 3}); },
       {"AG (hungry0 -> AF eat0)", "EF eat0", "EF (eat0 & EF eat1)"}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto warm_system = c.build();
    Checker warm_checker(*warm_system);
    Explainer warm(warm_checker);
    for (const std::string& spec : c.specs) {
      SCOPED_TRACE(spec);
      (void)warm_checker.check(spec);
      const std::string warm_json =
          evidence::from_explanation(*warm_system, c.name, spec,
                                     warm.explain(spec))
              .to_json();
      auto fresh_system = c.build();
      Checker fresh_checker(*fresh_system);
      Explainer fresh(fresh_checker);
      const std::string fresh_json =
          evidence::from_explanation(*fresh_system, c.name, spec,
                                     fresh.explain(spec))
              .to_json();
      EXPECT_EQ(warm_json, fresh_json);
    }
    EXPECT_GT(warm_checker.stats().eu_reuse_hits, 0u);
  }
}

}  // namespace
}  // namespace symcex::core
