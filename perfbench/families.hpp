// Seeded SMV model families for the benchmark workloads.
//
// Every generator returns SMV source text plus the verdict each SPEC must
// have.  The verdicts are derived from the construction (the comments on
// each generator give the argument), never from running the checker; the
// driver cross-checks them against src/explicit on instances small enough
// to enumerate.

#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

/// One job: a model with all of its SPECs, as smv_check handles it.
struct Job {
  std::string name;    ///< family and parameters, e.g. "phil-n4-v1"
  std::string family;  ///< "phil", "token", "gate", "bundled", "counter", ...
  std::string source;  ///< SMV text
  int size = 0;  ///< the family's size parameter (counter modulus, users)
  int aux = 0;   ///< a second parameter (the token arbiter's watchdog range)
  std::vector<bool> expected;  ///< verdict per SPEC, in source order
};

/// N philosophers in a ring with an unconstrained scheduler `turn` and one
/// fairness constraint per philosopher (`turn = i`).  Safety of adjacent
/// eaters holds; a hungry philosopher can starve (its neighbours take
/// turns eating whenever it is scheduled), so that liveness spec fails
/// with a short lasso.  `variant` rotates which philosopher the specs
/// name.
[[nodiscard]] Job philosophers(int n, int variant);

/// N users sharing a circulating token, plus a bystander watchdog counter
/// `wd : 0..w-1` that resets on every grant.  Users 1..N-1 are fair
/// (request infinitely often); user 0 is not, so `AG AF g0` fails with a
/// lasso, and the watchdog can saturate when everyone idles.
[[nodiscard]] Job token_arbiter(int n, int w);

/// The Seitz-style gate arbiter of examples/models/arbiter.smv with every
/// acknowledgement routed through `delay` extra speed-independent gates.
/// The ME element gives side 2 priority, so side 1 starves; exclusion and
/// side 2's liveness hold at every delay.
[[nodiscard]] Job gate_arbiter(int delay);

/// A mod-m counter checked against `AG !max` (fails after m states) and
/// `EF max` (holds; witness of m states).  `value_labels` adds a DEFINE
/// `at_<a> := c = a` per value, for served queries.
[[nodiscard]] Job modulo_counter(int m, bool value_labels);

/// A chain of `len` transient states leading into a terminal cycle of
/// `cycle` states; `EG TRUE` under a fairness mark inside the cycle holds
/// with a lasso whose prefix is the whole chain.
[[nodiscard]] Job scc_chain(int len, int cycle);

/// A bundled example model (examples/models/<name>.smv under `root`) with
/// the verdicts its header comment documents.
[[nodiscard]] Job bundled(const std::string& root, const std::string& name);

/// The job list of the in-process workload ("deep-trace"), in the order
/// every pass runs it.
[[nodiscard]] std::vector<Job> workload_jobs(const std::string& workload,
                                             std::uint64_t seed);

/// A served (model, spec) pair for the serve-repeat stream.
struct ServeKey {
  std::size_t model = 0;  ///< index into the serve model pool
  std::string spec;
  bool expected = false;
};

/// The serve-repeat model pool: small instances of both families.
[[nodiscard]] std::vector<Job> serve_models(std::uint64_t seed,
                                            const std::string& root);

/// How many fresh specs pool model `job` has (0 for most families).
[[nodiscard]] std::size_t fresh_capacity(const Job& job);

/// The `k`-th fresh spec on pool model `model`, k < fresh_capacity(): a
/// parameterised query whose verdict follows from the construction.
/// Distinct k give distinct formulas, so each one is a verdict-cache miss
/// the first time it is asked.
[[nodiscard]] ServeKey fresh_spec(const std::vector<Job>& pool,
                                  std::size_t model, std::size_t k);

}  // namespace perfbench
