// The corpus workloads: corpus-mix and corpus-tm.
//
// Both run the staged decider pipeline (RunCorpusPipeline) on a seeded
// corpus at 1 and 4 threads and check every output. The traced mode
// instead replays the pipeline stage by stage, calling each layer's
// public function per instance, and times every call.
//
// Composition. A plain GenerateCorpus draw is a multinomial sample over
// a few dozen instance shapes whose costs span five orders of magnitude
// (one corpus-mix shape, 1.25% of draws, costs ~0.8 s; everything else
// but a handful costs under 1 ms). The number of heavy draws therefore
// dominates the seed-to-seed spread. So the corpus is built as `blocks`
// blocks of `block_size` instances, each block holding every shape in
// proportion to its frequency in one fixed reference draw (largest
// remainder rounding), in an order shuffled by the run's seed. The mix
// is the generator's; only the sampling noise is gone.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/bench.h"
#include "src/analysis/diagnostics.h"
#include "src/containment/decider.h"
#include "src/containment/linear.h"
#include "src/containment/ucq_in_datalog.h"
#include "src/corpus/certificate.h"
#include "src/corpus/format.h"
#include "src/corpus/generate.h"
#include "src/corpus/naive.h"
#include "src/corpus/pipeline.h"
#include "src/corpus/verify.h"
#include "src/trees/expansion_tree.h"

namespace perfbench {
namespace {

using datalog::Status;
using datalog::StatusCode;
using datalog::StatusOr;
using datalog::corpus::Certificate;
using datalog::corpus::CertificateKind;
using datalog::corpus::CorpusInstance;
using datalog::corpus::PipelineOptions;
using datalog::corpus::PipelineResult;

struct CorpusSpec {
  datalog::corpus::CorpusGenOptions reference;
  std::size_t block_size = 0;
  std::size_t blocks = 0;
  std::uint64_t instance_deadline_ms = 0;
};

CorpusSpec SpecFor(const std::string& workload) {
  CorpusSpec spec;
  spec.reference.seed = 1;
  if (workload == "corpus-mix") {
    // Default family weights: ROADMAP's headline corpus.
    spec.reference.count = 8000;
    spec.block_size = 80;
    spec.blocks = 8;
  } else {
    spec.reference.count = 100;
    spec.reference.weight_tc = 0;
    spec.reference.weight_deep = 0;
    spec.reference.weight_wide = 0;
    spec.reference.weight_nonrec = 0;
    spec.reference.weight_malformed = 0;
    spec.reference.weight_tm = 1;
    spec.block_size = 4;
    spec.blocks = 10;
    // The slowest tractable stage takes ~60 ms, so a timeout here means
    // the instance is intractable, not that the host was slow.
    spec.instance_deadline_ms = 500;
  }
  return spec;
}

// ---------------------------------------------------------------------
// Set-up: composition, then the binary-format round trip.

/// What every block is made of: one exemplar per shape of the reference
/// draw, and the block's multiset of shapes (indexes into exemplars).
/// Worked out once per run, before any set-up is timed.
struct Recipe {
  std::vector<CorpusInstance> exemplars;
  std::vector<std::size_t> block;
};

Recipe MakeRecipe(const CorpusSpec& spec) {
  const std::vector<CorpusInstance> reference =
      datalog::corpus::GenerateCorpus(spec.reference);
  // Shapes keyed by their encoding with the id cleared.
  std::map<std::string, std::size_t> shape_of;
  std::vector<const CorpusInstance*> exemplars;
  std::vector<std::size_t> counts;
  for (const CorpusInstance& instance : reference) {
    CorpusInstance keyed = instance;
    keyed.id = 0;
    datalog::corpus::CorpusWriter writer;
    writer.Add(keyed);
    auto [it, inserted] =
        shape_of.emplace(writer.Serialize(), exemplars.size());
    if (inserted) {
      exemplars.push_back(&instance);
      counts.push_back(0);
    }
    ++counts[it->second];
  }
  // Largest-remainder apportionment of block_size slots to shapes.
  std::vector<std::size_t> quota(counts.size());
  std::vector<std::pair<std::size_t, std::size_t>> remainders;
  std::size_t assigned = 0;
  for (std::size_t s = 0; s < counts.size(); ++s) {
    const std::size_t scaled = counts[s] * spec.block_size;
    quota[s] = scaled / reference.size();
    assigned += quota[s];
    remainders.emplace_back(scaled % reference.size(), s);
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t k = 0; assigned < spec.block_size; ++k, ++assigned) {
    ++quota[remainders[k].second];
  }
  Recipe recipe;
  for (std::size_t s = 0; s < quota.size(); ++s) {
    if (quota[s] == 0) continue;
    recipe.block.insert(recipe.block.end(), quota[s], recipe.exemplars.size());
    recipe.exemplars.push_back(*exemplars[s]);
  }
  return recipe;
}

/// The run's corpus: `blocks` copies of the recipe's block, each in an
/// order drawn from `seed`.
std::vector<CorpusInstance> ComposeCorpus(const Recipe& recipe,
                                          const CorpusSpec& spec,
                                          std::uint64_t seed) {
  std::vector<std::size_t> block = recipe.block;
  std::mt19937_64 rng(seed);
  std::vector<CorpusInstance> corpus;
  corpus.reserve(spec.blocks * block.size());
  for (std::size_t b = 0; b < spec.blocks; ++b) {
    // Fisher-Yates with an explicit draw, so the order does not depend
    // on the standard library's shuffle.
    for (std::size_t i = block.size(); i > 1; --i) {
      std::swap(block[i - 1], block[rng() % i]);
    }
    for (std::size_t s : block) {
      CorpusInstance instance = recipe.exemplars[s];
      instance.id = corpus.size();
      corpus.push_back(std::move(instance));
    }
  }
  return corpus;
}

/// The timed set-up: composing the corpus, then CorpusWriter::Serialize,
/// CorpusReader::FromBytes and DecodeAll. The decoded corpus is what
/// runs. Set-up is timed in windows taken seconds apart (at the start
/// and after each batch); each window reports its medians, and the run
/// keeps its fastest window, because this host alternates between a fast
/// and a slower state for seconds at a time.
class InputSetup {
 public:
  InputSetup(const CorpusSpec& spec, std::uint64_t seed)
      : spec_(spec), seed_(seed), recipe_(MakeRecipe(spec)) {}

  /// Times one window. Returns false (and reports why) when the round
  /// trip fails or changes the corpus.
  bool Window(Report* report) {
    std::vector<double> total, generate, format;
    for (Repeats reps = SetupRepeats(); reps.More();) {
      const Clock::time_point start = Clock::now();
      std::vector<CorpusInstance> composed =
          ComposeCorpus(recipe_, spec_, seed_);
      const double generate_ms = MsSince(start);
      const Clock::time_point format_start = Clock::now();
      datalog::corpus::CorpusWriter writer;
      for (const CorpusInstance& instance : composed) writer.Add(instance);
      std::string bytes = writer.Serialize();
      const std::size_t size = bytes.size();
      StatusOr<datalog::corpus::CorpusReader> reader =
          datalog::corpus::CorpusReader::FromBytes(std::move(bytes));
      StatusOr<std::vector<CorpusInstance>> decoded =
          reader.ok() ? reader->DecodeAll()
                      : StatusOr<std::vector<CorpusInstance>>(reader.status());
      format.push_back(MsSince(format_start));
      generate.push_back(generate_ms);
      total.push_back(MsSince(start) / 1000.0);
      if (!decoded.ok()) {
        report->Problem("corpus round trip: " + decoded.status().ToString());
        return false;
      }
      if (instances_.empty()) {
        // The decoded corpus must re-encode to the same bytes.
        datalog::corpus::CorpusWriter again, original;
        for (const CorpusInstance& instance : *decoded) again.Add(instance);
        for (const CorpusInstance& instance : composed) original.Add(instance);
        if (again.Serialize() != original.Serialize()) {
          report->Problem("corpus round trip changed the instances");
          return false;
        }
        instances_ = std::move(*decoded);
        format_bytes_ = size;
      }
    }
    const double setup_s = Median(total);
    if (windows_ == 0 || setup_s < setup_s_) {
      setup_s_ = setup_s;
      generate_ms_ = Median(generate);
      format_ms_ = Median(format);
    }
    ++windows_;
    return true;
  }

  const std::vector<CorpusInstance>& instances() const { return instances_; }
  double setup_s() const { return setup_s_; }
  double generate_ms() const { return generate_ms_; }
  double format_ms() const { return format_ms_; }
  std::size_t format_bytes() const { return format_bytes_; }
  int windows() const { return windows_; }

 private:
  const CorpusSpec& spec_;
  const std::uint64_t seed_;
  const Recipe recipe_;
  std::vector<CorpusInstance> instances_;
  std::size_t format_bytes_ = 0;
  double setup_s_ = 0;
  double generate_ms_ = 0;
  double format_ms_ = 0;
  int windows_ = 0;
};

PipelineOptions OptionsFor(const CorpusSpec& spec, std::size_t threads) {
  PipelineOptions options;
  options.threads = threads;
  options.instance_deadline_ms = spec.instance_deadline_ms;
  return options;
}

std::vector<Certificate> AllCertificates(const PipelineResult& result) {
  std::vector<Certificate> certs;
  for (const datalog::corpus::StageReport& stage : result.stages) {
    certs.insert(certs.end(), stage.certificates.begin(),
                 stage.certificates.end());
  }
  return certs;
}

/// Serialized certificates per instance id, in stage order.
std::map<std::uint64_t, std::string> CertificateBytes(
    const PipelineResult& result) {
  std::map<std::uint64_t, std::string> bytes;
  for (const datalog::corpus::StageReport& stage : result.stages) {
    for (const Certificate& cert : stage.certificates) {
      bytes[cert.instance_id] +=
          datalog::corpus::SerializeCertificates({cert});
    }
  }
  return bytes;
}

/// Calls `verify` (VerifyCertificate, possibly traced) on every
/// certificate and marks in `failed` the instances whose certificates it
/// rejects. Returns how many certificates it rejected.
template <typename VerifyFn>
std::size_t MarkRejected(const std::vector<CorpusInstance>& instances,
                         const std::vector<Certificate>& certs,
                         const VerifyFn& verify, std::vector<bool>* failed,
                         Report* report) {
  std::size_t rejected = 0;
  for (const Certificate& cert : certs) {
    if (cert.instance_id >= instances.size()) {
      report->Problem("certificate for unknown instance " +
                      std::to_string(cert.instance_id));
      continue;
    }
    const Status verified = verify(cert);
    if (!verified.ok()) {
      ++rejected;
      (*failed)[cert.instance_id] = true;
      report->Problem("certificate of instance " +
                      std::to_string(cert.instance_id) + " rejected: " +
                      verified.ToString());
    }
  }
  return rejected;
}

/// Records a failed VerifyCorpus. When no single certificate was
/// rejected, the failure is one of coverage (a missing, duplicate or
/// contradictory certificate), which VerifyCorpus names only in its
/// message, so every instance counts as failed.
void CoverageFailed(const Status& status, std::size_t rejected,
                    std::vector<bool>* failed, Report* report) {
  report->Problem("VerifyCorpus: " + status.ToString());
  if (rejected == 0) failed->assign(failed->size(), true);
}

// ---------------------------------------------------------------------
// End-to-end mode.

void MeasureEndToEnd(const Config& config, const CorpusSpec& spec,
                     InstructionCounter& counter, Report* report) {
  InputSetup setup(spec, config.seed);
  if (!setup.Window(report)) return;
  const std::vector<CorpusInstance>& instances = setup.instances();
  const std::size_t n = instances.size();
  std::vector<double> ms1, ms4, instr1, instr4, verify, rss;
  double decided_share = 0;
  const Clock::time_point start = Clock::now();
  double round_ms = 0;
  do {
    const Clock::time_point round_start = Clock::now();
    ResetPeakRss();
    std::uint64_t i0 = counter.Read();
    Clock::time_point t0 = Clock::now();
    StatusOr<PipelineResult> r1 =
        datalog::corpus::RunCorpusPipeline(instances, OptionsFor(spec, 1));
    ms1.push_back(MsSince(t0));
    instr1.push_back(static_cast<double>(counter.Read() - i0) / 1e9);
    rss.push_back(PeakRssMb());

    std::vector<Certificate> certs;
    std::vector<double> verify_reps;
    StatusOr<datalog::corpus::VerifyReport> verified =
        datalog::InternalError("not verified");
    auto verify_window = [&] {
      verified = TimeWindow(&verify_reps, [&] {
        return datalog::corpus::VerifyCorpus(instances, certs);
      });
    };
    if (r1.ok()) {
      certs = AllCertificates(*r1);
      verify_window();
    }
    if (!setup.Window(report)) break;

    i0 = counter.Read();
    t0 = Clock::now();
    StatusOr<PipelineResult> r4 =
        datalog::corpus::RunCorpusPipeline(instances, OptionsFor(spec, 4));
    ms4.push_back(MsSince(t0));
    instr4.push_back(static_cast<double>(counter.Read() - i0) / 1e9);

    report->attempted += n;
    if (!r1.ok() || !r4.ok()) {
      report->failed += n;
      report->Problem("pipeline error: " +
                      (r1.ok() ? r4.status() : r1.status()).ToString());
      break;
    }
    verify_window();
    verify.push_back(
        *std::min_element(verify_reps.begin(), verify_reps.end()));
    if (!setup.Window(report)) break;

    std::vector<bool> failed(n, false);
    if (!verified.ok()) {
      const std::size_t rejected = MarkRejected(
          instances, certs,
          [&](const Certificate& cert) {
            return datalog::corpus::VerifyCertificate(
                instances[cert.instance_id], cert);
          },
          &failed, report);
      CoverageFailed(verified.status(), rejected, &failed, report);
    }
    std::map<std::uint64_t, std::string> bytes1 = CertificateBytes(*r1);
    std::map<std::uint64_t, std::string> bytes4 = CertificateBytes(*r4);
    for (std::size_t i = 0; i < n; ++i) {
      if (bytes1[i] != bytes4[i]) {
        failed[i] = true;
        report->Problem("instance " + std::to_string(i) +
                        ": certificates differ between 1 and 4 threads");
      }
    }
    report->failed += static_cast<std::uint64_t>(
        std::count(failed.begin(), failed.end(), true));
    decided_share =
        static_cast<double>(n - r1->timed_out) / static_cast<double>(n);
    round_ms = MsSince(round_start);
  } while (MsSince(start) + round_ms <= config.seconds * 1000.0);

  std::printf("%s seed %llu: %zu instances, %zu rounds, setup %.4f s "
              "(fastest of %d windows)\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), n, ms1.size(),
              setup.setup_s(), setup.windows());
  for (std::size_t r = 0; r < ms4.size(); ++r) {
    std::printf("  round %zu: t1 %.1f ms %.4f Ginstr, t4 %.1f ms %.4f "
                "Ginstr, peak %.1f MB\n",
                r, ms1[r], instr1[r], ms4[r], instr4[r], rss[r]);
  }
  // When a check failed, the metrics of what did run are still reported.
  for (std::vector<double>* values : {&ms4, &instr4, &verify}) {
    if (values->empty()) values->push_back(0);
  }
  report->Set("setup_s", setup.setup_s(), "s");
  report->Set("run_ms_t1", Mean(ms1), "ms");
  report->Set("run_ms_t4", Mean(ms4), "ms");
  report->Set("run_ginstr_t1", Median(instr1), "Ginstr");
  report->Set("run_ginstr_t4", Median(instr4), "Ginstr");
  report->Set("verify_ms", Median(verify), "ms");
  report->Set("decided_share", decided_share, "ratio");
  report->Set("peak_rss_mb", Median(rss), "MB");
}

// ---------------------------------------------------------------------
// Traced mode: a stage-by-stage replay of RunCorpusPipeline at 1 thread.

/// Counters the replay collects beyond calls/time/instructions/faults.
struct ReplayStats {
  LayerTotals lint, forward, naive, linear, unfold, decider;
  std::uint64_t forward_join_probes = 0;
  std::uint64_t linear_resolved = 0;
  std::uint64_t linear_gave_up = 0;
  std::uint64_t linear_pairs_explored = 0;
  std::uint64_t unfold_resolved = 0;
  std::uint64_t decider_timeouts = 0;
  std::uint64_t decider_states = 0;
  std::uint64_t decider_combine_calls = 0;
  /// Slowest stage call of an instance that did not time out.
  double slowest_tractable_ms = 0;
};

/// One instance's result within a replayed stage (mirrors the
/// pipeline's per-instance outcome; certificates by kind only).
struct Outcome {
  Status status = datalog::OkStatus();
  std::vector<CertificateKind> certs;
  std::uint32_t add_flags = 0;
};

/// The per-instance limits RunCorpusPipeline gives one stage call.
datalog::ExecutionLimits InstanceLimits(const CorpusSpec& spec) {
  datalog::ExecutionLimits limits;
  if (spec.instance_deadline_ms > 0) {
    limits = limits.WithDeadlineIn(
        static_cast<std::int64_t>(spec.instance_deadline_ms));
  }
  return limits;
}

Outcome ReplayLint(const CorpusInstance& inst, Tracer& tracer,
                   ReplayStats& stats, long parent) {
  Outcome out;
  const std::vector<datalog::Diagnostic> diagnostics =
      tracer.Call(stats.lint, "lint", inst.id, parent, [&] {
        return datalog::LintProgram(inst.program, inst.goal);
      });
  bool invalid = datalog::HasLintErrors(diagnostics);
  if (!invalid) {
    if (inst.theta.disjuncts().empty()) {
      invalid = true;
    } else {
      const std::size_t arity = inst.program.PredicateArity(inst.goal);
      for (const datalog::ConjunctiveQuery& d : inst.theta.disjuncts()) {
        if (d.arity() != arity) invalid = true;
      }
    }
  }
  if (invalid) {
    out.certs.push_back(CertificateKind::kInvalid);
    out.add_flags = datalog::corpus::kFlagInvalid;
  }
  return out;
}

Outcome ReplayForward(const CorpusInstance& inst, const CorpusSpec& spec,
                      Tracer& tracer, ReplayStats& stats, long parent) {
  using datalog::corpus::kFlagForwardContained;
  using datalog::corpus::kFlagForwardResolved;
  Outcome out;
  datalog::CanonicalDbOptions db_opts;
  db_opts.eval.num_threads = 1;
  db_opts.eval.limits = InstanceLimits(spec);
  const auto& disjuncts = inst.theta.disjuncts();
  auto contained_call = [&](std::size_t d,
                            const datalog::CanonicalDbOptions& opts) {
    datalog::EvalStats eval_stats;
    StatusOr<bool> result = tracer.Call(stats.forward, "forward", inst.id,
                                        parent, [&] {
      return datalog::IsUcqDisjunctContainedInDatalog(
          inst.theta, d, inst.program, inst.goal, &eval_stats, opts);
    });
    stats.forward_join_probes += eval_stats.join_probes;
    return result;
  };
  auto naive_call = [&](std::size_t d) {
    return tracer.Call(stats.naive, "naive", inst.id, parent, [&] {
      datalog::corpus::NaiveFrozenCq frozen =
          datalog::corpus::NaiveFreezeCq(inst.goal, disjuncts[d]);
      return datalog::corpus::FindDerivation(inst.program, frozen.facts,
                                             frozen.goal_atom,
                                             PipelineOptions().naive_max_facts);
    });
  };
  std::size_t failing = disjuncts.size();
  for (std::size_t d = 0; d < disjuncts.size(); ++d) {
    StatusOr<bool> contained = contained_call(d, db_opts);
    if (!contained.ok()) {
      out.status = contained.status();
      return out;
    }
    if (!*contained) {
      failing = d;
      break;
    }
  }
  if (failing == disjuncts.size()) {
    for (std::size_t d = 0; d < disjuncts.size(); ++d) {
      auto steps = naive_call(d);
      if (!steps.ok()) {
        out.status = steps.status();
        return out;
      }
      if (!steps->has_value()) {
        out.status = datalog::InternalError("forward disagreement");
        return out;
      }
    }
    out.certs.push_back(CertificateKind::kForwardContained);
    out.add_flags = kFlagForwardResolved | kFlagForwardContained;
    return out;
  }
  datalog::CanonicalDbWitness witness;
  datalog::CanonicalDbOptions witness_opts = db_opts;
  witness_opts.witness = &witness;
  StatusOr<bool> again = contained_call(failing, witness_opts);
  if (!again.ok() || *again) {
    out.status = again.ok() ? datalog::InternalError("forward flip")
                            : again.status();
    return out;
  }
  auto steps = naive_call(failing);
  if (!steps.ok() || steps->has_value()) {
    out.status = steps.ok() ? datalog::InternalError("forward disagreement")
                            : steps.status();
    return out;
  }
  out.certs.push_back(CertificateKind::kForwardNotContained);
  out.add_flags = kFlagForwardResolved;
  return out;
}

Outcome ReplayLinear(const CorpusInstance& inst, const CorpusSpec& spec,
                     Tracer& tracer, ReplayStats& stats, long parent) {
  Outcome out;
  if (!datalog::corpus::IsRecursiveNaive(inst.program)) return out;
  const PipelineOptions defaults;
  datalog::LinearContainmentOptions lopts;
  lopts.limits = InstanceLimits(spec)
                     .WithMaxStates(defaults.linear_max_states)
                     .WithMaxLabels(defaults.linear_max_labels);
  StatusOr<datalog::LinearContainmentResult> result =
      tracer.Call(stats.linear, "linear", inst.id, parent, [&] {
        return datalog::DecideLinearDatalogInUcq(inst.program, inst.goal,
                                                 inst.theta, lopts);
      });
  if (!result.ok()) {
    const StatusCode code = result.status().code();
    if (code == StatusCode::kResourceExhausted) ++stats.linear_gave_up;
    if (code == StatusCode::kInvalidArgument ||
        code == StatusCode::kResourceExhausted) {
      return out;
    }
    out.status = result.status();
    return out;
  }
  stats.linear_pairs_explored += result->pairs_explored;
  if (result->contained) {
    out.add_flags = datalog::corpus::kFlagLinearContainedHint;
    return out;
  }
  if (!result->counterexample.has_value()) {
    out.status = datalog::InternalError("linear refutation without a tree");
    return out;
  }
  ++stats.linear_resolved;
  out.certs.push_back(CertificateKind::kBackwardNotContained);
  out.add_flags = datalog::corpus::kFlagBackwardResolved;
  return out;
}

Outcome ReplayUnfold(const CorpusInstance& inst, std::uint32_t flags,
                     Tracer& tracer, ReplayStats& stats, long parent) {
  using datalog::corpus::kFlagBackwardContained;
  using datalog::corpus::kFlagBackwardResolved;
  const bool hint = (flags & datalog::corpus::kFlagLinearContainedHint) != 0;
  const bool recursive = datalog::corpus::IsRecursiveNaive(inst.program);
  Outcome out = tracer.Call(stats.unfold, "unfold", inst.id, parent, [&] {
    Outcome o;
    const int depth =
        recursive ? datalog::corpus::kRecursiveRefutationDepth
                  : static_cast<int>(inst.program.IdbPredicates().size()) + 1;
    auto enumeration = datalog::corpus::EnumerateExpansionsNaive(
        inst.program, inst.goal, depth, datalog::corpus::kExpansionNodeBudget);
    if (!enumeration.ok() || (!recursive && !enumeration->complete)) return o;
    for (const datalog::ExpansionTree& tree : enumeration->trees) {
      const datalog::ConjunctiveQuery cq =
          datalog::TreeToCq(inst.program, tree);
      if (datalog::corpus::UcqCoversCq(inst.theta, cq)) continue;
      if (hint) {
        o.status = datalog::InternalError("unfold disagreement");
        return o;
      }
      o.certs.push_back(CertificateKind::kBackwardNotContained);
      o.add_flags = kFlagBackwardResolved;
      return o;
    }
    if (!recursive) {
      o.certs.push_back(CertificateKind::kBackwardContainedUnfold);
      o.add_flags = kFlagBackwardResolved | kFlagBackwardContained;
    }
    return o;
  });
  if (out.add_flags != 0) ++stats.unfold_resolved;
  return out;
}

Outcome ReplayDecider(const CorpusInstance& inst, std::uint32_t flags,
                      const CorpusSpec& spec, Tracer& tracer,
                      ReplayStats& stats, long parent) {
  Outcome out;
  const PipelineOptions defaults;
  datalog::ContainmentStats partial;
  datalog::ContainmentOptions copts;
  copts.track_witness = true;
  copts.export_trace = true;
  copts.limits =
      InstanceLimits(spec).WithMaxStates(defaults.decider_max_states);
  copts.partial_stats = &partial;
  StatusOr<datalog::ContainmentDecision> decision =
      tracer.Call(stats.decider, "decider", inst.id, parent, [&] {
        return datalog::DecideDatalogInUcq(inst.program, inst.goal,
                                           inst.theta, copts);
      });
  stats.decider_states += partial.states_discovered;
  stats.decider_combine_calls += partial.combine_calls;
  if (!decision.ok()) {
    if (decision.status().code() == StatusCode::kDeadlineExceeded) {
      ++stats.decider_timeouts;
    }
    out.status = decision.status();
    return out;
  }
  if (decision->contained) {
    out.certs.push_back(CertificateKind::kBackwardContained);
    out.add_flags = datalog::corpus::kFlagBackwardResolved |
                    datalog::corpus::kFlagBackwardContained;
    return out;
  }
  if ((flags & datalog::corpus::kFlagLinearContainedHint) != 0 ||
      !decision->counterexample.has_value()) {
    out.status = datalog::InternalError("decider disagreement");
    return out;
  }
  out.certs.push_back(CertificateKind::kBackwardNotContained);
  out.add_flags = datalog::corpus::kFlagBackwardResolved;
  return out;
}

/// A replayed stage's accounting, comparable with the pipeline's
/// StageReport: counts plus (instance, certificate kind) in order.
struct StageCounts {
  std::string name;
  std::size_t entered = 0;
  std::size_t decided = 0;
  std::size_t holdout = 0;
  std::vector<std::pair<std::uint64_t, CertificateKind>> certs;
};

/// Replays one stage over the instances it has not resolved yet; each
/// instance's work is one span named `span_name` (a literal).
template <typename Fn>
Status ReplayStage(const char* name, const char* span_name,
                   const std::vector<CorpusInstance>& instances,
                   std::vector<std::uint32_t>& flags, Tracer& tracer,
                   ReplayStats& stats, long root, const Fn& fn,
                   std::vector<StageCounts>* out) {
  StageCounts counts;
  counts.name = name;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (datalog::corpus::InstanceResolved(flags[i])) continue;
    ++counts.entered;
    const long span = tracer.Open(span_name, instances[i].id, root);
    Outcome outcome = fn(instances[i], flags[i], span);
    const double ms = tracer.Close(span);
    if (!outcome.status.ok()) {
      if (outcome.status.code() != StatusCode::kDeadlineExceeded) {
        return outcome.status;
      }
      outcome.certs = {CertificateKind::kTimeout};
      outcome.add_flags = datalog::corpus::kFlagTimedOut;
    } else {
      stats.slowest_tractable_ms = std::max(stats.slowest_tractable_ms, ms);
    }
    flags[i] |= outcome.add_flags;
    if (datalog::corpus::InstanceResolved(flags[i])) ++counts.decided;
    for (CertificateKind kind : outcome.certs) {
      counts.certs.emplace_back(instances[i].id, kind);
    }
  }
  for (std::uint32_t f : flags) {
    if (!datalog::corpus::InstanceResolved(f)) ++counts.holdout;
  }
  out->push_back(std::move(counts));
  return datalog::OkStatus();
}

Status Replay(const std::vector<CorpusInstance>& instances,
              const CorpusSpec& spec, Tracer& tracer, ReplayStats& stats,
              std::vector<StageCounts>* stages) {
  std::vector<std::uint32_t> flags(instances.size(), 0);
  const long root = tracer.Open("replay", 0, -1);
  Status s = ReplayStage(
      "lint", "stage.lint", instances, flags, tracer, stats, root,
      [&](const CorpusInstance& inst, std::uint32_t, long span) {
        return ReplayLint(inst, tracer, stats, span);
      },
      stages);
  if (s.ok()) {
    s = ReplayStage(
        "forward", "stage.forward", instances, flags, tracer, stats, root,
        [&](const CorpusInstance& inst, std::uint32_t, long span) {
          return ReplayForward(inst, spec, tracer, stats, span);
        },
        stages);
  }
  if (s.ok()) {
    s = ReplayStage(
        "linear", "stage.linear", instances, flags, tracer, stats, root,
        [&](const CorpusInstance& inst, std::uint32_t, long span) {
          return ReplayLinear(inst, spec, tracer, stats, span);
        },
        stages);
  }
  if (s.ok()) {
    s = ReplayStage(
        "unfold", "stage.unfold", instances, flags, tracer, stats, root,
        [&](const CorpusInstance& inst, std::uint32_t f, long span) {
          return ReplayUnfold(inst, f, tracer, stats, span);
        },
        stages);
  }
  if (s.ok()) {
    s = ReplayStage(
        "ptrees", "stage.ptrees", instances, flags, tracer, stats, root,
        [&](const CorpusInstance& inst, std::uint32_t f, long span) {
          return ReplayDecider(inst, f, spec, tracer, stats, span);
        },
        stages);
  }
  tracer.Close(root);
  return s;
}

double Ratio(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0 : static_cast<double>(part) / static_cast<double>(whole);
}

void MeasureTraced(const Config& config, const CorpusSpec& spec,
                   InstructionCounter& counter, Report* report) {
  InputSetup setup(spec, config.seed);
  if (!setup.Window(report)) return;
  const std::vector<CorpusInstance>& instances = setup.instances();
  const std::size_t n = instances.size();
  report->attempted = n;

  // The untraced 1-thread call the replay is compared against.
  Clock::time_point t0 = Clock::now();
  StatusOr<PipelineResult> plain =
      datalog::corpus::RunCorpusPipeline(instances, OptionsFor(spec, 1));
  const double plain_ms = MsSince(t0);
  if (!plain.ok()) {
    report->failed = n;
    report->Problem("pipeline error: " + plain.status().ToString());
    return;
  }

  Tracer tracer(counter);
  ReplayStats stats;
  std::vector<StageCounts> stages;
  t0 = Clock::now();
  Status replayed = Replay(instances, spec, tracer, stats, &stages);
  const double replay_ms = MsSince(t0);
  if (!replayed.ok()) {
    report->failed = n;
    report->Problem("replay error: " + replayed.ToString());
    return;
  }

  // The replay must account for the pipeline stage by stage.
  std::vector<bool> failed(n, false);
  if (stages.size() != plain->stages.size()) {
    report->Problem("replay ran a different number of stages");
  }
  for (std::size_t k = 0; k < std::min(stages.size(), plain->stages.size());
       ++k) {
    const StageCounts& mine = stages[k];
    const datalog::corpus::StageReport& theirs = plain->stages[k];
    std::printf("  stage %-8s entered %5zu decided %5zu holdout %5zu "
                "(pipeline %zu/%zu/%zu)\n",
                mine.name.c_str(), mine.entered, mine.decided, mine.holdout,
                theirs.entered, theirs.decided, theirs.holdout);
    if (mine.name != theirs.name || mine.entered != theirs.entered ||
        mine.decided != theirs.decided || mine.holdout != theirs.holdout) {
      report->Problem("stage " + theirs.name +
                      ": replay counts differ from the pipeline's");
    }
    std::vector<std::pair<std::uint64_t, CertificateKind>> kinds;
    for (const Certificate& cert : theirs.certificates) {
      kinds.emplace_back(cert.instance_id, cert.kind);
    }
    if (kinds != mine.certs) {
      report->Problem("stage " + theirs.name +
                      ": replay certificates differ from the pipeline's");
      for (const auto& [id, kind] : kinds) failed[std::min(id, n - 1)] = true;
      for (const auto& [id, kind] : mine.certs) {
        failed[std::min(id, n - 1)] = true;
      }
    }
  }

  // Certificate serialization and verification, one call per stage and
  // per certificate respectively.
  LayerTotals cert_layer, verify_layer;
  std::size_t cert_bytes = 0;
  for (const datalog::corpus::StageReport& stage : plain->stages) {
    const std::string text =
        tracer.Call(cert_layer, "cert", 0, -1, [&] {
          return datalog::corpus::SerializeCertificates(stage.certificates);
        });
    cert_bytes += text.size();
  }
  const std::vector<Certificate> certs = AllCertificates(*plain);
  const std::size_t rejected = MarkRejected(
      instances, certs,
      [&](const Certificate& cert) {
        return tracer.Call(verify_layer, "verify", cert.instance_id, -1, [&] {
          return datalog::corpus::VerifyCertificate(
              instances[cert.instance_id], cert);
        });
      },
      &failed, report);
  // Coverage, untimed.
  const StatusOr<datalog::corpus::VerifyReport> verified =
      datalog::corpus::VerifyCorpus(instances, certs);
  if (!verified.ok()) {
    CoverageFailed(verified.status(), rejected, &failed, report);
  }
  report->failed = static_cast<std::uint64_t>(
      std::count(failed.begin(), failed.end(), true));

  if (!config.trace_out.empty() && !tracer.Write(config.trace_out)) {
    report->Problem("cannot write spans to " + config.trace_out);
  }
  std::printf("%s seed %llu traced: %zu instances, replay %.1f ms vs "
              "pipeline %.1f ms, tracer overhead %.1f ms; slowest tractable "
              "stage call %.1f ms "
              "(instance deadline %llu ms)\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), n, replay_ms,
              plain_ms, tracer.overhead_ms(), stats.slowest_tractable_ms,
              static_cast<unsigned long long>(spec.instance_deadline_ms));

  auto layer = [&](const std::string& name, const LayerTotals& totals,
                   bool with_instr) {
    report->Set(name + ".calls", static_cast<double>(totals.calls), "count");
    report->Set(name + ".ms", totals.ms, "ms");
    if (with_instr) {
      report->Set(name + ".ginstr",
                  static_cast<double>(totals.instructions) / 1e9, "Ginstr");
    }
  };
  layer("lint", stats.lint, false);
  layer("forward", stats.forward, true);
  report->Set("forward.join_probes",
              static_cast<double>(stats.forward_join_probes), "count");
  report->Set("naive.ms", stats.naive.ms, "ms");
  report->Set("naive.ginstr",
              static_cast<double>(stats.naive.instructions) / 1e9, "Ginstr");
  layer("linear", stats.linear, true);
  report->Set("linear.minflt", static_cast<double>(stats.linear.minflt),
              "count");
  report->Set("linear.resolved", static_cast<double>(stats.linear_resolved),
              "count");
  report->Set("linear.yield", Ratio(stats.linear_resolved, stats.linear.calls),
              "ratio");
  report->Set("linear.gave_up", static_cast<double>(stats.linear_gave_up),
              "count");
  report->Set("linear.pairs_explored",
              static_cast<double>(stats.linear_pairs_explored), "count");
  layer("unfold", stats.unfold, false);
  report->Set("unfold.yield", Ratio(stats.unfold_resolved, stats.unfold.calls),
              "ratio");
  layer("decider", stats.decider, true);
  report->Set("decider.minflt", static_cast<double>(stats.decider.minflt),
              "count");
  report->Set("decider.timeouts", static_cast<double>(stats.decider_timeouts),
              "count");
  report->Set("decider.states", static_cast<double>(stats.decider_states),
              "count");
  report->Set("decider.combine_calls",
              static_cast<double>(stats.decider_combine_calls), "count");
  report->Set("cert.ms", cert_layer.ms, "ms");
  report->Set("cert.bytes", static_cast<double>(cert_bytes), "bytes");
  layer("verify", verify_layer, true);
  report->Set("generate.ms", setup.generate_ms(), "ms");
  report->Set("format.ms", setup.format_ms(), "ms");
  report->Set("format.bytes", static_cast<double>(setup.format_bytes()),
              "bytes");
  report->Set("trace.overhead_ms", tracer.overhead_ms(), "ms");
}

}  // namespace

void RunCorpusWorkload(const Config& config, InstructionCounter& counter,
                       Report* report) {
  const CorpusSpec spec = SpecFor(config.workload);
  if (config.trace) {
    MeasureTraced(config, spec, counter, report);
  } else {
    MeasureEndToEnd(config, spec, counter, report);
  }
}

}  // namespace perfbench
