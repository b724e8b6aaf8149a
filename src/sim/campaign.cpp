#include "sim/campaign.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/types.h"
#include "telemetry/attribution.h"
#include "telemetry/stats_json.h"
#include "sim/snapshot.h"
#include "sim/worker_budget.h"
#include "workload/spec_profiles.h"

namespace rop::sim {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Spec parsing helpers.

// Scheme and refresh-mode names delegate to the shared preset-layer parser
// (sim/presets.h) — the single source of truth the ropsim CLI uses too, so
// campaign specs and --mode flags cannot drift.
bool parse_mode(const std::string& s, MemoryMode* out) {
  const auto mode = parse_memory_mode(s);
  if (!mode) return false;
  *out = *mode;
  return true;
}

bool parse_refresh(const std::string& s, dram::RefreshMode* out) {
  const auto mode = parse_refresh_mode(s);
  if (!mode) return false;
  *out = *mode;
  return true;
}

/// Benchmark axis value -> per-core benchmark list. "wlN" expands to the
/// 4-program mix of Table II; any Table I name runs single-core.
bool parse_benchmark(const std::string& s, std::vector<std::string>* out) {
  if (s.size() == 3 && s[0] == 'w' && s[1] == 'l' && s[2] >= '1' &&
      s[2] <= '0' + static_cast<char>(workload::kNumWorkloadMixes)) {
    *out = workload::workload_mix(static_cast<std::uint32_t>(s[2] - '0'));
    return true;
  }
  for (const std::string_view name : workload::kBenchmarkNames) {
    if (s == name) {
      *out = {s};
      return true;
    }
  }
  return false;
}

bool axis_strings(const json::Value& axes, const std::string& key,
                  std::vector<std::string> fallback,
                  std::vector<std::string>* out, std::string* error) {
  const json::Value* v = axes.find(key);
  if (v == nullptr) {
    *out = std::move(fallback);
    return true;
  }
  if (!v->is_array() || v->as_array().empty()) {
    *error = "axis '" + key + "' must be a non-empty array";
    return false;
  }
  out->clear();
  for (const json::Value& e : v->as_array()) {
    if (!e.is_string()) {
      *error = "axis '" + key + "' entries must be strings";
      return false;
    }
    out->push_back(e.as_string());
  }
  return true;
}

bool axis_u64(const json::Value& axes, const std::string& key,
              std::vector<std::uint64_t> fallback,
              std::vector<std::uint64_t>* out, std::string* error) {
  const json::Value* v = axes.find(key);
  if (v == nullptr) {
    *out = std::move(fallback);
    return true;
  }
  if (!v->is_array() || v->as_array().empty()) {
    *error = "axis '" + key + "' must be a non-empty array";
    return false;
  }
  out->clear();
  for (const json::Value& e : v->as_array()) {
    if (!e.has_u64() || e.as_u64() == 0) {
      *error = "axis '" + key + "' entries must be positive integers";
      return false;
    }
    out->push_back(e.as_u64());
  }
  return true;
}

bool axis_bools(const json::Value& axes, const std::string& key,
                std::vector<bool> fallback, std::vector<bool>* out,
                std::string* error) {
  const json::Value* v = axes.find(key);
  if (v == nullptr) {
    *out = std::move(fallback);
    return true;
  }
  if (!v->is_array() || v->as_array().empty()) {
    *error = "axis '" + key + "' must be a non-empty array";
    return false;
  }
  out->clear();
  for (const json::Value& e : v->as_array()) {
    if (!e.is_bool()) {
      *error = "axis '" + key + "' entries must be booleans";
      return false;
    }
    out->push_back(e.as_bool());
  }
  return true;
}

std::uint64_t scalar_u64(const json::Value& spec, const std::string& key,
                         std::uint64_t fallback) {
  const json::Value* v = spec.find(key);
  return (v != nullptr && v->has_u64()) ? v->as_u64() : fallback;
}

// ---------------------------------------------------------------------------
// Manifest + file IO.

/// FNV-1a over the raw spec text: a resumed campaign must be driven by the
/// byte-identical spec, otherwise cell indices could mean different runs.
std::string fingerprint(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

bool read_file(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

/// Atomic write: a reader (or a resumed campaign) never observes a
/// half-written document, even if the process dies mid-write.
bool write_file_atomic(const fs::path& path, const std::string& text) {
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << text;
    out.flush();
    if (!out) return false;
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  return !ec;
}

std::string cell_filename(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "cell_%06zu.json", index);
  return buf;
}

/// Intra-cell checkpoint, written periodically while the cell runs (spec
/// scalar "snapshot_every") and deleted once the cell's JSON lands.
std::string cell_snapname(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "cell_%06zu.snap", index);
  return buf;
}

std::string manifest_text(const std::string& fp, std::size_t total,
                          const std::vector<bool>& done) {
  std::ostringstream os;
  telemetry::JsonWriter w(os);
  w.begin_object();
  w.key("fingerprint");
  w.value(std::string_view(fp));
  w.key("total");
  w.value(static_cast<std::uint64_t>(total));
  w.key("completed");
  w.begin_array();
  for (std::size_t i = 0; i < done.size(); ++i) {
    if (done[i]) w.value(static_cast<std::uint64_t>(i));
  }
  w.end_array();
  w.end_object();
  os << '\n';
  return os.str();
}

// ---------------------------------------------------------------------------
// Merge.

/// Re-serialize a parsed Value. Objects are std::map, so keys come out
/// sorted — deterministic regardless of the source document's key order.
void write_value(telemetry::JsonWriter& w, const json::Value& v) {
  switch (v.kind()) {
    case json::Value::Kind::kNull:
      w.null();
      break;
    case json::Value::Kind::kBool:
      w.value(v.as_bool());
      break;
    case json::Value::Kind::kNumber:
      if (v.has_u64()) {
        w.value(v.as_u64());
      } else if (v.has_i64()) {
        w.value(v.as_i64());
      } else {
        w.value(v.as_double());
      }
      break;
    case json::Value::Kind::kString:
      w.value(std::string_view(v.as_string()));
      break;
    case json::Value::Kind::kArray:
      w.begin_array();
      for (const json::Value& e : v.as_array()) write_value(w, e);
      w.end_array();
      break;
    case json::Value::Kind::kObject:
      w.begin_object();
      for (const auto& [key, val] : v.as_object()) {
        w.key(key);
        write_value(w, val);
      }
      w.end_object();
      break;
  }
}

double number_at(const json::Value& doc, const std::string& a,
                 const std::string& b) {
  const json::Value* v = doc.find(a);
  if (v != nullptr) v = v->find(b);
  return (v != nullptr && v->is_number()) ? v->as_double() : 0.0;
}

std::uint64_t u64_at(const json::Value& doc, const std::string& a,
                     const std::string& b) {
  const json::Value* v = doc.find(a);
  if (v != nullptr) v = v->find(b);
  return (v != nullptr && v->has_u64()) ? v->as_u64() : 0;
}

/// Pooled scalar: counts add; per-cell exact sums feed a Scalar so the
/// pooled sum is itself exact; bounds are the min/max over non-empty cells.
struct ScalarAgg {
  std::uint64_t count = 0;
  Scalar sum_acc;  // record() one exact per-cell sum at a time
  double min = 0.0;
  double max = 0.0;
  bool any = false;
};

struct MergeState {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, ScalarAgg> scalars;
  std::map<std::string, Histogram> histograms;
};

void merge_registry_sections(MergeState* m, const json::Value& doc) {
  if (const json::Value* cs = doc.find("counters");
      cs != nullptr && cs->is_object()) {
    for (const auto& [name, v] : cs->as_object()) {
      if (v.has_u64()) m->counters[name] += v.as_u64();
    }
  }
  if (const json::Value* ss = doc.find("scalars");
      ss != nullptr && ss->is_object()) {
    for (const auto& [name, v] : ss->as_object()) {
      if (!v.is_object()) continue;
      const json::Value* cnt = v.find("count");
      const json::Value* sum = v.find("sum");
      if (cnt == nullptr || !cnt->has_u64() || sum == nullptr ||
          !sum->is_number()) {
        continue;
      }
      ScalarAgg& agg = m->scalars[name];
      const std::uint64_t c = cnt->as_u64();
      agg.count += c;
      if (c == 0) continue;
      agg.sum_acc.record(sum->as_double());
      const json::Value* mn = v.find("min");
      const json::Value* mx = v.find("max");
      const double lo = (mn != nullptr && mn->is_number()) ? mn->as_double()
                                                           : 0.0;
      const double hi = (mx != nullptr && mx->is_number()) ? mx->as_double()
                                                           : 0.0;
      agg.min = agg.any ? std::min(agg.min, lo) : lo;
      agg.max = agg.any ? std::max(agg.max, hi) : hi;
      agg.any = true;
    }
  }
  if (const json::Value* hs = doc.find("histograms");
      hs != nullptr && hs->is_object()) {
    for (const auto& [name, v] : hs->as_object()) {
      if (!v.is_object()) continue;
      const json::Value* width = v.find("bucket_width");
      const json::Value* sum = v.find("sum");
      const json::Value* buckets = v.find("buckets");
      if (width == nullptr || !width->has_u64() || sum == nullptr ||
          !sum->has_u64() || buckets == nullptr || !buckets->is_array()) {
        continue;
      }
      std::vector<std::uint64_t> counts;
      counts.reserve(buckets->as_array().size());
      for (const json::Value& b : buckets->as_array()) {
        if (!b.has_u64()) break;
        counts.push_back(b.as_u64());
      }
      if (counts.size() != buckets->as_array().size() || counts.size() < 2) {
        continue;
      }
      Histogram h(width->as_u64(), std::move(counts), sum->as_u64());
      auto [it, inserted] = m->histograms.try_emplace(name, h);
      if (!inserted) it->second.merge(h);
    }
  }
}

std::string merged_text(const std::string& name,
                        const std::vector<CampaignCell>& cells,
                        const std::vector<json::Value>& docs) {
  MergeState agg;
  for (const json::Value& doc : docs) merge_registry_sections(&agg, doc);

  std::ostringstream os;
  telemetry::JsonWriter w(os);
  w.begin_object();
  w.key("schema_version");
  w.value(std::uint64_t{1});
  w.key("campaign");
  w.value(std::string_view(name));
  w.key("cells");
  w.value(static_cast<std::uint64_t>(cells.size()));

  // Wall-clock fields (run.wall_seconds, sim_cycles_per_second) are
  // deliberately excluded everywhere below: they differ run to run, and the
  // merged document must be byte-identical across resume boundaries.
  w.key("per_cell");
  w.begin_array();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const json::Value& doc = docs[i];
    w.begin_object();
    w.key("label");
    w.value(std::string_view(cells[i].label));
    w.key("cpu_cycles");
    w.value(u64_at(doc, "run", "cpu_cycles"));
    w.key("mem_cycles");
    w.value(u64_at(doc, "run", "mem_cycles"));
    double ipc_total = 0.0;
    if (const json::Value* run = doc.find("run"); run != nullptr) {
      if (const json::Value* cores = run->find("cores");
          cores != nullptr && cores->is_array()) {
        for (const json::Value& core : cores->as_array()) {
          if (const json::Value* ipc = core.find("ipc");
              ipc != nullptr && ipc->is_number()) {
            ipc_total += ipc->as_double();
          }
        }
      }
    }
    w.key("ipc_total");
    w.value(ipc_total);
    w.key("energy_total_mj");
    w.value(number_at(doc, "energy_mj", "total"));
    w.key("refreshes");
    w.value(u64_at(doc, "rop", "refreshes"));
    w.key("checker_violations");
    w.value(u64_at(doc, "checker", "violations"));
    w.end_object();
  }
  w.end_array();

  w.key("aggregate");
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [cname, value] : agg.counters) {
    w.key(cname);
    w.value(value);
  }
  w.end_object();
  w.key("scalars");
  w.begin_object();
  for (const auto& [sname, s] : agg.scalars) {
    w.key(sname);
    w.begin_object();
    w.key("count");
    w.value(s.count);
    const double sum = s.sum_acc.sum();
    w.key("sum");
    w.value(sum);
    w.key("mean");
    w.value(s.count ? sum / static_cast<double>(s.count) : 0.0);
    w.key("min");
    if (s.any) {
      w.value(s.min);
    } else {
      w.null();
    }
    w.key("max");
    if (s.any) {
      w.value(s.max);
    } else {
      w.null();
    }
    w.end_object();
  }
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [hname, h] : agg.histograms) {
    w.key(hname);
    w.begin_object();
    w.key("count");
    w.value(h.count());
    w.key("sum");
    w.value(h.sum());
    w.key("mean");
    w.value(h.mean());
    w.key("bucket_width");
    w.value(h.bucket_width());
    w.key("buckets");
    w.begin_array();
    for (std::size_t i = 0; i < h.num_buckets(); ++i) w.value(h.bucket(i));
    w.end_array();
    w.key("p50");
    w.value(h.percentile(50.0));
    w.key("p95");
    w.value(h.percentile(95.0));
    w.key("p99");
    w.value(h.percentile(99.0));
    w.end_object();
  }
  w.end_object();
  w.end_object();  // aggregate

  // Epoch series concatenate rather than fold: each cell's time axis is its
  // own run, so the merged document keeps them side by side under labels.
  w.key("epochs");
  w.begin_array();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const json::Value* epochs = docs[i].find("epochs");
    if (epochs == nullptr || epochs->is_null()) continue;
    w.begin_object();
    w.key("label");
    w.value(std::string_view(cells[i].label));
    w.key("epochs");
    write_value(w, *epochs);
    w.end_object();
  }
  w.end_array();

  w.end_object();
  os << '\n';
  return os.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// Expansion.

std::optional<std::vector<CampaignCell>> expand_campaign(
    const json::Value& spec, std::string* error) {
  std::string err;
  if (!spec.is_object()) {
    if (error != nullptr) *error = "campaign spec must be a JSON object";
    return std::nullopt;
  }

  const std::uint64_t instructions =
      scalar_u64(spec, "instructions_per_core", 200'000);
  const std::uint64_t epoch_cycles = scalar_u64(spec, "epoch_cycles", 0);
  const std::uint64_t shard_channels = scalar_u64(spec, "shard_channels", 0);
  const std::uint64_t snapshot_every = scalar_u64(spec, "snapshot_every", 0);
  const json::Value* check_v = spec.find("check");
  const bool check = check_v != nullptr && check_v->is_bool() &&
                     check_v->as_bool();

  // Top-level "sampling" object: its presence switches every cell to
  // sampled execution (sim/sampling.h knobs; "jobs" sets the window-worker
  // count, "strata" the stratified placement). Sampling composes with
  // neither intra-cell checkpoints nor the sharded loop nor epoch
  // telemetry, so those combinations are spec errors, not silent
  // downgrades.
  SamplingSpec sampling;
  if (const json::Value* sv = spec.find("sampling"); sv != nullptr) {
    if (!sv->is_object()) {
      if (error != nullptr) *error = "'sampling' must be a JSON object";
      return std::nullopt;
    }
    if (snapshot_every > 0) {
      if (error != nullptr) {
        *error = "'sampling' cannot be combined with snapshot_every";
      }
      return std::nullopt;
    }
    if (shard_channels > 0) {
      if (error != nullptr) {
        *error = "'sampling' requires the serial loop (no shard_channels)";
      }
      return std::nullopt;
    }
    if (epoch_cycles > 0) {
      if (error != nullptr) {
        *error = "'sampling' cannot be combined with epoch_cycles";
      }
      return std::nullopt;
    }
    sampling.enabled = true;
    sampling.warmup_cycles =
        scalar_u64(*sv, "warmup_cycles", sampling.warmup_cycles);
    sampling.detail_cycles =
        scalar_u64(*sv, "detail_cycles", sampling.detail_cycles);
    sampling.functional_instructions = scalar_u64(
        *sv, "functional_instructions", sampling.functional_instructions);
    sampling.min_windows = static_cast<std::uint32_t>(
        scalar_u64(*sv, "min_windows", sampling.min_windows));
    sampling.max_windows = static_cast<std::uint32_t>(
        scalar_u64(*sv, "max_windows", sampling.max_windows));
    sampling.jobs =
        static_cast<std::uint32_t>(scalar_u64(*sv, "jobs", sampling.jobs));
    sampling.strata = static_cast<std::uint32_t>(
        scalar_u64(*sv, "strata", sampling.strata));
    if (const json::Value* ci = sv->find("target_ci");
        ci != nullptr && ci->is_number()) {
      sampling.target_ci_frac = ci->as_double();
    }
    if (sampling.jobs == 0) {
      if (error != nullptr) *error = "'sampling.jobs' must be >= 1";
      return std::nullopt;
    }
  }

  static const json::Value kEmptyAxes{json::Object{}};
  const json::Value* axes_p = spec.find("axes");
  const json::Value& axes = axes_p != nullptr ? *axes_p : kEmptyAxes;
  if (!axes.is_object()) {
    if (error != nullptr) *error = "'axes' must be a JSON object";
    return std::nullopt;
  }

  std::vector<std::string> benchmarks, modes, refreshes;
  std::vector<std::uint64_t> ranks, channels, llc_mb;
  std::vector<bool> partitions;
  if (!axis_strings(axes, "benchmark", {"lbm"}, &benchmarks, &err) ||
      !axis_strings(axes, "mode", {"baseline"}, &modes, &err) ||
      !axis_u64(axes, "ranks", {1}, &ranks, &err) ||
      !axis_strings(axes, "refresh", {"1x"}, &refreshes, &err) ||
      !axis_bools(axes, "rank_partition", {false}, &partitions, &err) ||
      !axis_u64(axes, "channels", {1}, &channels, &err) ||
      !axis_u64(axes, "llc_mb", {2}, &llc_mb, &err)) {
    if (error != nullptr) *error = err;
    return std::nullopt;
  }

  std::vector<CampaignCell> cells;
  cells.reserve(benchmarks.size() * modes.size() * ranks.size() *
                refreshes.size() * partitions.size() * channels.size() *
                llc_mb.size());
  // Fixed nesting order (last axis fastest) keeps indices stable across
  // invocations — the contract the resume manifest depends on.
  for (const std::string& bench : benchmarks) {
    std::vector<std::string> cores;
    if (!parse_benchmark(bench, &cores)) {
      if (error != nullptr) *error = "unknown benchmark '" + bench + "'";
      return std::nullopt;
    }
    for (const std::string& mode_s : modes) {
      MemoryMode mode{};
      if (!parse_mode(mode_s, &mode)) {
        if (error != nullptr) *error = "unknown mode '" + mode_s + "'";
        return std::nullopt;
      }
      for (const std::uint64_t r : ranks) {
        for (const std::string& ref_s : refreshes) {
          dram::RefreshMode refresh{};
          if (!parse_refresh(ref_s, &refresh)) {
            if (error != nullptr) {
              *error = "unknown refresh mode '" + ref_s + "'";
            }
            return std::nullopt;
          }
          for (const bool part : partitions) {
            for (const std::uint64_t ch : channels) {
              for (const std::uint64_t mb : llc_mb) {
                CampaignCell cell;
                cell.index = cells.size();
                std::ostringstream label;
                label << bench << '/' << mode_s << "/r" << r << '/' << ref_s
                      << "/part" << (part ? 1 : 0) << "/ch" << ch << "/llc"
                      << mb;
                cell.label = label.str();
                ExperimentSpec& e = cell.spec;
                e.benchmarks = cores;
                e.mode = mode;
                e.rank_partition = part;
                e.ranks = static_cast<std::uint32_t>(r);
                e.channels = static_cast<std::uint32_t>(ch);
                e.shard_channels = static_cast<std::uint32_t>(
                    std::min<std::uint64_t>(shard_channels, ch));
                e.llc_bytes = mb << 20;
                e.refresh_mode = refresh;
                e.instructions_per_core = instructions;
                e.max_cpu_cycles = instructions * 256;  // ropsim parity
                e.check = check;
                e.sampling = sampling;
                e.telemetry.sampler.epoch_cycles = epoch_cycles;
                // Paths are filled in by run_campaign (they depend on the
                // output directory); the period rides in the spec so every
                // expansion site agrees on it.
                e.snapshot.every = snapshot_every;
                cells.push_back(std::move(cell));
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

// ---------------------------------------------------------------------------
// Execution.

std::optional<CampaignSummary> run_campaign(const CampaignOptions& opts,
                                            std::string* error) {
  const auto fail = [error](std::string msg) -> std::optional<CampaignSummary> {
    if (error != nullptr) *error = std::move(msg);
    return std::nullopt;
  };

  std::string spec_text;
  if (!read_file(opts.spec_path, &spec_text)) {
    return fail("cannot read campaign spec: " + opts.spec_path);
  }
  std::string parse_err;
  const std::optional<json::Value> spec = json::parse(spec_text, &parse_err);
  if (!spec) return fail("spec parse error: " + parse_err);

  std::string expand_err;
  std::optional<std::vector<CampaignCell>> cells_opt =
      expand_campaign(*spec, &expand_err);
  if (!cells_opt) return fail(expand_err);
  std::vector<CampaignCell>& cells = *cells_opt;
  if (cells.empty()) return fail("campaign expands to zero cells");

  const json::Value* name_v = spec->find("name");
  const std::string name =
      (name_v != nullptr && name_v->is_string()) ? name_v->as_string()
                                                 : "campaign";
  const std::string fp = fingerprint(spec_text);

  const fs::path out_dir(opts.out_dir);
  std::error_code ec;
  fs::create_directories(out_dir, ec);
  if (ec) return fail("cannot create output directory: " + opts.out_dir);

  // Restore completed cells from an existing manifest (same spec only).
  std::vector<bool> done(cells.size(), false);
  std::size_t restored = 0;
  const fs::path manifest_path = out_dir / "manifest.json";
  if (opts.resume) {
    std::string manifest_raw;
    if (read_file(manifest_path, &manifest_raw)) {
      const std::optional<json::Value> manifest = json::parse(manifest_raw);
      const json::Value* mfp =
          manifest ? manifest->find("fingerprint") : nullptr;
      const json::Value* mdone =
          manifest ? manifest->find("completed") : nullptr;
      if (mfp != nullptr && mfp->is_string() && mfp->as_string() == fp &&
          mdone != nullptr && mdone->is_array()) {
        for (const json::Value& idx : mdone->as_array()) {
          if (!idx.has_u64() || idx.as_u64() >= cells.size()) continue;
          const std::size_t i = idx.as_u64();
          // Trust a manifest entry only when the cell document survived too.
          if (fs::exists(out_dir / cell_filename(i))) {
            done[i] = true;
            ++restored;
            // A kill between the cell JSON landing and its checkpoint being
            // deleted can leave the .snap behind; it is dead weight now.
            std::error_code rm_ec;
            fs::remove(out_dir / cell_snapname(i), rm_ec);
          }
        }
      }
    }
  }

  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!done[i]) pending.push_back(i);
  }

  // Budget against the widest cell: sharded cells bring shard workers and
  // sampled cells bring window workers, so jobs * width never
  // exceeds the machine (a 4-cell sweep of sampling.jobs=4 cells on an
  // 8-thread budget runs 2 cells at a time, not 4).
  unsigned max_width = 1;
  for (const CampaignCell& cell : cells) {
    max_width = std::max(max_width, experiment_worker_width(cell.spec));
  }
  const unsigned n_workers =
      worker_budget(opts.jobs, max_width, pending.size());

  std::mutex mu;  // guards done[], the manifest file, and progress output
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> fresh{0};
  std::atomic<std::size_t> running{0};
  std::atomic<bool> io_failed{false};
  std::string io_error;

  // Live-ops heartbeat (JSONL; one line per cell transition). Holds the
  // manifest mutex while writing, so lines never interleave.
  std::unique_ptr<telemetry::ProgressWriter> beat;
  if (!opts.progress_file.empty()) {
    beat = std::make_unique<telemetry::ProgressWriter>(opts.progress_file);
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto emit_beat = [&](const std::string& label) {  // requires mu held
    if (beat == nullptr) return;
    telemetry::ProgressWriter::CampaignHeartbeat hb;
    std::size_t total_done = 0;
    for (const bool d : done) total_done += d ? 1 : 0;
    hb.done = total_done;
    hb.failed = io_failed.load(std::memory_order_relaxed) ? 1 : 0;
    hb.running = running.load(std::memory_order_relaxed);
    hb.total = cells.size();
    hb.wall_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    const std::size_t n_fresh = fresh.load(std::memory_order_relaxed);
    if (total_done >= cells.size()) {
      hb.eta_s = 0.0;
    } else if (n_fresh > 0 && hb.wall_s > 0.0) {
      // Aggregate throughput over fresh completions this invocation —
      // parallel workers are already folded in.
      hb.eta_s = hb.wall_s / static_cast<double>(n_fresh) *
                 static_cast<double>(cells.size() - total_done);
    }
    hb.last_cell = label;
    beat->write_campaign(hb);
  };
  {
    std::lock_guard<std::mutex> lock(mu);
    emit_beat("");  // opening line: totals and restored count
  }

  const auto worker = [&] {
    for (;;) {
      if (io_failed.load(std::memory_order_relaxed)) return;
      if (opts.stop_after > 0 &&
          fresh.load(std::memory_order_relaxed) >= opts.stop_after) {
        return;
      }
      const std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
      if (slot >= pending.size()) return;
      const std::size_t idx = pending[slot];
      running.fetch_add(1, std::memory_order_relaxed);
      if (beat != nullptr) {
        std::lock_guard<std::mutex> lock(mu);
        emit_beat(cells[idx].label);
      }
      ExperimentSpec cell_spec = cells[idx].spec;
      fs::path snap_path;
      if (cell_spec.snapshot.every > 0) {
        snap_path = out_dir / cell_snapname(idx);
        cell_spec.snapshot.out = snap_path.string();
        // Resume mid-cell from the last periodic checkpoint — but only one
        // written under this exact spec; a stale file from an earlier sweep
        // is discarded, not trusted.
        if (snapshot_compatible(snap_path.string(),
                                config_fingerprint(
                                    spec_canonical(cell_spec)))) {
          cell_spec.snapshot.in = snap_path.string();
        } else {
          std::error_code rm_ec;
          fs::remove(snap_path, rm_ec);
        }
      }
      const ExperimentResult result = run_experiment(cell_spec);
      const std::string doc = result.to_json();
      if (!write_file_atomic(out_dir / cell_filename(idx), doc)) {
        std::lock_guard<std::mutex> lock(mu);
        io_error = "cannot write " + cell_filename(idx);
        io_failed.store(true, std::memory_order_relaxed);
        return;
      }
      if (!snap_path.empty()) {
        // The cell JSON landed; the intra-cell checkpoint is obsolete (and
        // must not leak into the next campaign in this directory).
        std::error_code rm_ec;
        fs::remove(snap_path, rm_ec);
      }
      const std::size_t n_fresh =
          fresh.fetch_add(1, std::memory_order_relaxed) + 1;
      running.fetch_sub(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mu);
      done[idx] = true;
      // Checkpoint after every cell: a kill between two checkpoints loses
      // at most in-flight cells, never completed ones.
      if (!write_file_atomic(manifest_path,
                             manifest_text(fp, cells.size(), done))) {
        io_error = "cannot write manifest.json";
        io_failed.store(true, std::memory_order_relaxed);
        emit_beat(cells[idx].label);
        return;
      }
      if (opts.progress) {
        std::size_t total_done = 0;
        for (const bool d : done) total_done += d ? 1 : 0;
        std::fprintf(stderr, "[campaign %s] %zu/%zu done: %s\n", name.c_str(),
                     total_done, cells.size(), cells[idx].label.c_str());
      }
      emit_beat(cells[idx].label);
      static_cast<void>(n_fresh);
    }
  };

  std::vector<std::thread> threads;
  for (unsigned t = 1; t < n_workers; ++t) threads.emplace_back(worker);
  worker();
  for (std::thread& t : threads) t.join();
  if (io_failed.load()) return fail(io_error);

  CampaignSummary summary;
  summary.total_cells = cells.size();
  summary.skipped_cells = restored;
  summary.ran_cells = fresh.load();
  std::size_t completed = 0;
  for (const bool d : done) completed += d ? 1 : 0;
  summary.completed_cells = completed;
  summary.complete = completed == cells.size();
  if (!summary.complete) return summary;

  // Merge: parse every per-cell document back and aggregate. Deterministic
  // (sorted keys, exact integer/scalar folds, no wall-clock fields), so a
  // resumed campaign reproduces the uninterrupted merged.json byte for
  // byte.
  std::vector<json::Value> docs;
  docs.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::string text;
    if (!read_file(out_dir / cell_filename(i), &text)) {
      return fail("cannot read " + cell_filename(i));
    }
    std::string cell_err;
    std::optional<json::Value> doc = json::parse(text, &cell_err);
    if (!doc) {
      return fail(cell_filename(i) + " parse error: " + cell_err);
    }
    docs.push_back(std::move(*doc));
  }
  const fs::path merged_path = out_dir / "merged.json";
  if (!write_file_atomic(merged_path, merged_text(name, cells, docs))) {
    return fail("cannot write merged.json");
  }
  summary.merged_path = merged_path.string();
  return summary;
}

}  // namespace rop::sim
