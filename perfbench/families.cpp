#include "families.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace perfbench {
namespace {

std::string num(long v) { return std::to_string(v); }

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct Spec {
  std::string text;
  bool holds;
};

void add_specs(Job& job, const std::vector<Spec>& specs) {
  for (const Spec& s : specs) {
    job.source += "SPEC " + s.text + "\n";
    job.expected.push_back(s.holds);
  }
}

}  // namespace

Job philosophers(int n, int variant) {
  // p<i> moves only on its own turn: think -> {think, hungry},
  // hungry -> eat when neither neighbour eats, eat -> think.
  Job job;
  job.family = "phil";
  job.name = "phil-n" + num(n) + "-v" + num(variant);
  std::string& s = job.source;
  s = "MODULE main\nVAR\n  turn : 0.." + num(n - 1) + ";\n";
  for (int i = 0; i < n; ++i) s += "  p" + num(i) + " : {think, hungry, eat};\n";
  s += "ASSIGN\n";
  for (int i = 0; i < n; ++i) {
    const std::string p = "p" + num(i);
    const std::string left = "p" + num((i + n - 1) % n);
    const std::string right = "p" + num((i + 1) % n);
    s += "  init(" + p + ") := think;\n";
    s += "  next(" + p + ") := case\n"
         "      turn = " + num(i) + " & " + p + " = think : {think, hungry};\n"
         "      turn = " + num(i) + " & " + p + " = hungry & " + left +
         " != eat & " + right + " != eat : eat;\n"
         "      turn = " + num(i) + " & " + p + " = eat : think;\n"
         "      TRUE : " + p + ";\n"
         "    esac;\n";
  }
  for (int i = 0; i < n; ++i) s += "FAIRNESS turn = " + num(i) + "\n";
  // Specs name their atoms through DEFINEs, so the same text is also a
  // valid query for symcex-serve (whose CTL atoms are labels).
  const int k = variant % n;
  const std::string p = "p" + num(k);
  s += "DEFINE\n  me_think := " + p + " = think;\n  me_hungry := " + p +
       " = hungry;\n  me_eat := " + p + " = eat;\n  right_eat := p" +
       num((k + 1) % n) + " = eat;\n";
  add_specs(job, {
      // Only the scheduled philosopher moves, and it starts eating only
      // when both neighbours are not eating.
      {"AG !(me_eat & right_eat)", true},
      // Its turn comes infinitely often, and eat -> think is forced then.
      {"AG (me_eat -> AF me_think)", true},
      // With n >= 3 the two neighbours can hand eating over between them
      // so that one of them eats every time p is scheduled: starvation.
      {"AG (me_hungry -> AF me_eat)", false},
      // From anywhere: let the others finish, then p gets hungry and eats.
      {"AG EF me_eat", true},
      // p may choose to keep thinking on each of its turns.
      {"EG me_think", true},
  });
  return job;
}

Job token_arbiter(int n, int w) {
  // tok stays with a requesting holder until it is granted, then moves on;
  // a grant lasts one step and clears the request.
  Job job;
  job.family = "token";
  job.name = "token-n" + num(n) + "-w" + num(w);
  job.size = n;
  job.aux = w;
  std::string& s = job.source;
  s = "MODULE main\nVAR\n  tok : 0.." + num(n - 1) + ";\n";
  for (int i = 0; i < n; ++i) {
    s += "  r" + num(i) + " : boolean;\n  g" + num(i) + " : boolean;\n";
  }
  s += "  wd : 0.." + num(w - 1) + ";\nASSIGN\n  init(tok) := 0;\n"
       "  init(wd) := 0;\n";
  std::string any_grant;
  std::string tok_next = "  next(tok) := case\n";
  for (int i = 0; i < n; ++i) {
    const std::string r = "r" + num(i);
    const std::string g = "g" + num(i);
    s += "  init(" + r + ") := FALSE;\n  init(" + g + ") := FALSE;\n";
    s += "  next(" + r + ") := case " + g + " : FALSE; " + r +
         " : TRUE; TRUE : {FALSE, TRUE}; esac;\n";
    s += "  next(" + g + ") := tok = " + num(i) + " & " + r + " & !" + g +
         ";\n";
    tok_next += "      tok = " + num(i) + " & (!" + r + " | " + g +
                ") : " + num((i + 1) % n) + ";\n";
    any_grant += (i == 0 ? "" : " | ") + g;
  }
  s += tok_next + "      TRUE : tok;\n    esac;\n";
  s += "  next(wd) := case " + any_grant + " : 0; wd < " + num(w - 1) +
       " : wd + 1; TRUE : wd; esac;\nDEFINE\n";
  for (int a = 0; a < w; ++a) s += "  wd_" + num(a) + " := wd = " + num(a) + ";\n";
  for (int j = 0; j < n; ++j) s += "  tok_" + num(j) + " := tok = " + num(j) + ";\n";
  for (int i = 1; i < n; ++i) s += "FAIRNESS r" + num(i) + "\n";
  add_specs(job, {
      // g_i is only set while tok = i, and tok moves before g_{i+1} can.
      {"AG !(g0 & g1)", true},
      // The token always moves on (a holder is skipped or granted), so a
      // pending request is reached within one circulation.
      {"AG (r0 -> AF g0)", true},
      {"AG (r1 -> AF g1)", true},
      // User 0 is not fair and may never request.
      {"AG AF g0", false},
      // Everyone may idle for w steps (fairness is only "infinitely often").
      {"AG !wd_" + num(w - 1), false},
      // Fair user 1 requests again, is granted, and the grant resets wd.
      {"AG (wd_" + num(w - 1) + " -> AF wd_0)", true},
  });
  return job;
}

Job gate_arbiter(int delay) {
  Job job;
  job.family = "gate";
  job.name = "gate-d" + num(delay);
  std::string& s = job.source;
  s = "MODULE user(ack)\n"
      "VAR req : boolean;\n"
      "ASSIGN\n"
      "  init(req) := FALSE;\n"
      "  next(req) := case req = ack : {req, !req}; TRUE : req; esac;\n"
      "FAIRNESS !(req & ack)\n\n"
      "MODULE gate(target)\n"
      "VAR out : boolean;\n"
      "ASSIGN\n"
      "  init(out) := FALSE;\n"
      "  next(out) := {out, target};\n"
      "FAIRNESS out = target\n\n"
      "MODULE main\nVAR\n"
      "  u1 : user(a1.out);\n  u2 : user(a2.out);\n"
      "  g1 : gate(u1.req & !g2.out & !u2.req | g1.out & u1.req);\n"
      "  g2 : gate(u2.req & !g1.out | g2.out & u2.req);\n";
  for (int side = 1; side <= 2; ++side) {
    std::string prev = "g" + num(side) + ".out";
    for (int d = 0; d < delay; ++d) {
      std::string name = "d";
      name += num(side * 100 + d);
      s += "  " + name + " : gate(" + prev + ");\n";
      prev = name + ".out";
    }
    s += "  a" + num(side) + " : gate(" + prev + ");\n";
  }
  s += "TRANS !(next(g1.out) & next(g2.out))\n";
  add_specs(job, {
      // The ME element's TRANS constraint.
      {"AG !(g1.out & g2.out)", true},
      // Side 1 is granted only while side 2 is not requesting; side 2 can
      // re-request forever.
      {"AG (u1.req -> AF a1.out)", false},
      // g1 drops once u1 completes its handshake (fair gates and users),
      // and side 2 has priority from then on.
      {"AG (u2.req -> AF a2.out)", true},
  });
  return job;
}

Job modulo_counter(int m, bool value_labels) {
  Job job;
  job.family = "counter";
  job.name = "counter-m" + num(m);
  job.size = m;
  job.source = "MODULE main\nVAR\n  c : 0.." + num(m - 1) +
               ";\nASSIGN\n  init(c) := 0;\n  next(c) := (c + 1) mod " +
               num(m) + ";\nDEFINE\n  max := c = " + num(m - 1) + ";\n";
  if (value_labels) {
    for (int a = 0; a < m; ++a) {
      job.source += "  at_" + num(a) + " := c = " + num(a) + ";\n";
    }
  }
  // The only path is 0, 1, ..., m-1, 0, ...: max is reached after m-1
  // steps, so AG !max fails and EF max holds, both with m-state traces.
  add_specs(job, {{"AG !max", false}, {"EF max", true}});
  return job;
}

Job scc_chain(int len, int cycle) {
  Job job;
  job.family = "chain";
  job.name = "chain-l" + num(len) + "-c" + num(cycle);
  const int last = len + cycle - 1;
  job.source = "MODULE main\nVAR\n  v : 0.." + num(last) +
               ";\nASSIGN\n  init(v) := 0;\n  next(v) := case v = " +
               num(last) + " : " + num(len) + "; TRUE : v + 1; esac;\n" +
               "FAIRNESS v = " + num(len + cycle / 2) + "\n";
  // The single path runs down the chain into the cycle, which contains
  // the fair mark: EG TRUE holds, with a lasso whose prefix is the chain.
  // The mark is met after len + cycle/2 steps, and the cycle's head only
  // after len.
  add_specs(job, {{"EG TRUE", true},
                  {"AG (v < " + num(len) + " -> AF v = " + num(len) + ")", true},
                  {"AG v < " + num(len + cycle / 2), false}});
  return job;
}

Job bundled(const std::string& root, const std::string& name) {
  Job job;
  job.family = "bundled";
  job.name = name;
  job.source = read_file(root + "/examples/models/" + name + ".smv");
  // Verdicts from the model's construction (see its header comment);
  // the driver re-checks them with src/explicit after every run.
  if (name == "arbiter") {
    job.expected = {true, false, true};
  } else {
    throw std::invalid_argument("unknown bundled model " + name);
  }
  return job;
}

std::vector<Job> workload_jobs(const std::string& workload, std::uint64_t seed) {
  // Sizes are fixed strata with a small seeded jitter, so that every seed
  // gives the same mix of job costs (a seed changes which instances run
  // and in which order, not how expensive the workload is).
  std::mt19937_64 rng(seed);
  const auto jitter = [&rng](int centre, int spread) {
    return centre + static_cast<int>(std::uniform_int_distribution<int>(
                        -spread, spread)(rng));
  };
  std::vector<Job> jobs;
  if (workload == "deep-trace") {
    for (const int m : {520, 620, 720, 820, 920}) {
      int modulus = jitter(m, 4);
      if ((modulus & (modulus - 1)) == 0) ++modulus;  // never a power of two
      jobs.push_back(modulo_counter(modulus, false));
    }
    for (const int len : {500, 600, 700, 800, 900}) {
      jobs.push_back(scc_chain(jitter(len, 4), jitter(10, 2)));
    }
  } else {
    throw std::invalid_argument("unknown in-process workload " + workload);
  }
  std::shuffle(jobs.begin(), jobs.end(), rng);
  return jobs;
}

std::vector<Job> serve_models(std::uint64_t seed, const std::string& root) {
  std::mt19937_64 rng(seed ^ 0x5e57e);
  const auto jitter = [&rng](int centre, int spread) {
    return centre + static_cast<int>(std::uniform_int_distribution<int>(
                        -spread, spread)(rng));
  };
  std::vector<Job> pool;
  pool.push_back(bundled(root, "arbiter"));
  pool.push_back(gate_arbiter(1));
  // Distinct watchdog ranges: two identical models would share their
  // cache keys, and a fresh key on one would hit the other's entry.
  const std::pair<int, int> tokens[] = {{2, 32}, {3, 29}, {3, 35}};
  for (const auto& [n, w] : tokens) pool.push_back(token_arbiter(n, jitter(w, 1)));
  for (const int n : {3, 4}) pool.push_back(philosophers(n, jitter(2, 2)));
  // Small counters: a fresh counter query then costs about what a fresh
  // token-arbiter query does (~1-2 ms), so the misses form one mode and
  // miss_ms.p50 does not sit on the edge between two.
  for (const int m : {11, 14, 19}) pool.push_back(modulo_counter(jitter(m, 1), true));
  for (std::size_t i = 0; i < pool.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (pool[i].source == pool[j].source) {
        throw std::logic_error("serve pool model " + pool[i].name + " appears twice");
      }
    }
  }
  return pool;
}

std::size_t fresh_capacity(const Job& job) {
  // Enough that no model runs out within a 60-second stream.
  const auto n = static_cast<std::size_t>(job.size);
  const auto w = static_cast<std::size_t>(job.aux);
  if (job.family == "counter") return 4 * n * n * n;
  if (job.family == "token") return 3 * n * n * w * w;
  return 0;
}

ServeKey fresh_spec(const std::vector<Job>& pool, std::size_t model,
                    std::size_t k) {
  const Job& job = pool.at(model);
  if (k >= fresh_capacity(job)) {
    throw std::out_of_range(job.name + " has no fresh spec " + std::to_string(k));
  }
  ServeKey key;
  key.model = model;
  if (job.family == "counter") {
    // c = a is followed by c = a + 1 (mod m) and nothing else, so
    // `steps` steps after at_a the counter is at a + steps (mod m).
    const auto m = static_cast<std::size_t>(job.size);
    const std::size_t a = k % m;
    const std::size_t b = (k / m) % m;
    const std::size_t c = (k / (m * m)) % m;
    const std::size_t steps = 1 + k / (m * m * m);
    std::string after;
    for (std::size_t s = 0; s < steps; ++s) after += "AX ";
    key.spec = "AG (at_" + std::to_string(a) + " -> " + after + "(at_" +
               std::to_string(b) + " | at_" + std::to_string(c) + "))";
    const std::size_t lands = (a + steps) % m;
    key.expected = b == lands || c == lands;
  } else {
    // Every user's request is granted on every fair path, and a grant
    // lasts one step; each holds under any stronger antecedent.
    const auto n = static_cast<std::size_t>(job.size);
    const auto w = static_cast<std::size_t>(job.aux);
    const std::string a = std::to_string(k % w);
    const std::string b = std::to_string((k / w) % w);
    const std::string j = std::to_string((k / (w * w)) % n);
    const std::string i = std::to_string((k / (w * w * n)) % n);
    const std::string when = "(wd_" + a + " | wd_" + b + ") & tok_" + j;
    switch (k / (w * w * n * n)) {
      case 0: key.spec = "AG (" + when + " & r" + i + " -> AF g" + i + ")"; break;
      case 1: key.spec = "AG (" + when + " & g" + i + " -> AX !g" + i + ")"; break;
      default: key.spec = "AG (" + when + " & r" + i + " -> EF g" + i + ")"; break;
    }
    key.expected = true;
  }
  return key;
}

}  // namespace perfbench
