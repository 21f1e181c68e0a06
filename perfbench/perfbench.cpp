// perfbench: the repository's steady end-to-end + per-layer benchmark.
//
//   perfbench --workload <skeap_steady|seap_cycle|skeap_wire_lossy>
//             --seed <n> --seconds <s> --trace <0|1>
//
// One single-threaded workload per process, driven only through the public
// harness API (SkeapSystem/SeapSystem insert, delete_min, run_batch,
// run_cycle). Every timed epoch does the same work: the heap is preloaded,
// each epoch issues a fixed, balanced insert/deleteMin mix, and warm-up
// epochs are excluded. The host's speed drifts in phases of seconds, so
// ops_per_s is taken over the fastest tenth of the window's epochs, the
// part of the run least slowed by other tenants. Model cost (rounds, messages,
// bits, congestion, latency in rounds) is counted over a fixed prefix of
// the window and repeats bit for bit for a given seed.
//
// --trace 1 interleaves untraced and traced blocks of epochs. Traced
// epochs timestamp every round through Network::set_round_observer, read
// the round's deliveries per action from Metrics, and attribute the
// round's host time to the layers whose messages it delivered.
//
// Output: report lines, then one JSON object on the last line that
// perfbench/run.py turns into the benchmark result. Exit code 0 only when
// every output check passed.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <new>
#include <optional>
#include <random>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/semantics.hpp"
#include "dht/dht.hpp"
#include "overlay/overlay_node.hpp"
#include "recovery/recovery.hpp"
#include "seap/seap_system.hpp"
#include "sim/payload.hpp"
#include "sim/reliable.hpp"
#include "skeap/skeap_system.hpp"

// ---- Allocation counter ----------------------------------------------------
//
// Replacing the global allocation functions in this translation unit counts
// every heap allocation the process makes (sim.allocs_per_op).

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  const std::size_t a = std::max(static_cast<std::size_t>(al), sizeof(void*));
  if (posix_memalign(&p, a, n == 0 ? 1 : n) != 0) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace sks;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

// ---- Workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  bool seap;                   ///< SeapSystem (else SkeapSystem)
  std::size_t n;               ///< nodes
  std::uint64_t priorities;    ///< Skeap |P|, or Seap's max priority
  std::size_t preload;         ///< inserts per node before timing
  std::size_t ops_per_node;    ///< ops each node issues per epoch
  bool lossy;                  ///< wire mode, 5 % drops, reliable, k = 2
  std::size_t warmup;          ///< untimed epochs after the preload
  std::size_t model_epochs;    ///< fixed prefix the model cost is counted on
  std::size_t setups;          ///< setup repeats (median = setup_s)
};

// Why each workload exists is recorded in perfbench/README.md.
constexpr Workload kWorkloads[] = {
    {"skeap_steady", false, 2048, 4, 8, 3, false, 3, 40, 5},
    {"seap_cycle", true, 256, (1ULL << 48) - 1, 10, 1, false, 10, 150, 15},
    {"skeap_wire_lossy", false, 128, 4, 8, 3, true, 3, 80, 5},
};

constexpr std::uint64_t kSystemSeed = 0x5eed5eedULL;
constexpr double kDropProb = 0.05;
constexpr std::uint32_t kReplication = 2;
constexpr std::size_t kTraceBlock = 4;   ///< epochs per traced/untraced block
constexpr std::size_t kTailBeyond = 10;  ///< samples beyond the tail value

// ---- Layers ------------------------------------------------------------------
//
// Each delivered message is charged to exactly one layer, by its action
// (Metrics tags routed hops and vertex envelopes with the payload they
// carry). Routed payloads travel as overlay RouteHops, so every one of
// their deliveries is an overlay hop; the final hop also runs the owner's
// handler. Protocol messages that ride the aggregation/broadcast tree are
// aggregation; DHT replies and acks are dht; the rest by name prefix.

enum Layer : std::size_t {
  kSim,          ///< per-round engine cost not explained by messages
  kOverlay,
  kDht,
  kAggregation,
  kKselect,
  kReliable,
  kRecovery,
  kRuntime,      ///< epoch time outside the round loop
  kClient,       ///< insert/delete_min calls
  kOther,
  kNumLayers
};

constexpr const char* kLayerNames[kNumLayers] = {
    "sim",      "overlay",  "dht",     "aggregation", "kselect",
    "reliable", "recovery", "runtime", "client",      "other"};

bool starts_with(const std::string& s, const char* p) {
  return s.rfind(p, 0) == 0;
}

bool is_routed(const std::string& a) {
  return a == "dht.put" || a == "dht.get" || a == "kselect.seed" ||
         a == "kselect.rdv" || a == "kselect.order_get" ||
         a == "kselect.order_put";
}

Layer layer_of(const std::string& a) {
  if (is_routed(a) || starts_with(a, "member.")) return kOverlay;
  if (starts_with(a, "skeap.") || starts_with(a, "seap.") ||
      a == "kselect.step" || a == "kselect.reply" ||
      a == "kselect.sample_up" || a == "kselect.sample_down") {
    return kAggregation;
  }
  if (starts_with(a, "dht.")) return kDht;
  if (starts_with(a, "kselect.")) return kKselect;
  if (a == "transport.ack") return kReliable;
  if (starts_with(a, "recovery.")) return kRecovery;
  return kOther;
}

std::uint64_t sum_where(const std::map<std::string, std::uint64_t>& by_type,
                        const std::function<bool(const std::string&)>& pred) {
  std::uint64_t total = 0;
  for (const auto& [name, count] : by_type) {
    if (pred(name)) total += count;
  }
  return total;
}

std::uint64_t count_of(const std::map<std::string, std::uint64_t>& by_type,
                       const char* name) {
  auto it = by_type.find(name);
  return it == by_type.end() ? 0 : it->second;
}

// ---- Statistics ---------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile of exact integer samples.
std::uint64_t percentile(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// The value at the highest percentile with at least kTailBeyond samples
/// beyond it; `pct` receives that percentile.
double tail(std::vector<double> v, double* pct) {
  std::sort(v.begin(), v.end());
  if (v.size() <= kTailBeyond) {
    *pct = 0.0;
    return v.empty() ? 0.0 : v.back();
  }
  const std::size_t i = v.size() - kTailBeyond - 1;
  *pct = 100.0 * static_cast<double>(i + 1) / static_cast<double>(v.size());
  return v[i];
}

/// Client ops per host second over the fastest tenth of the epochs
/// (every epoch issues `ops_per_epoch` ops).
double fast_tenth_rate(std::vector<double> epoch_ms, std::size_t ops_per_epoch) {
  std::sort(epoch_ms.begin(), epoch_ms.end());
  const std::size_t k = std::max<std::size_t>(1, epoch_ms.size() / 10);
  double ms = 0;
  for (std::size_t i = 0; i < k; ++i) ms += epoch_ms[i];
  return static_cast<double>(k * ops_per_epoch) / (ms / 1e3);
}

// ---- Host helpers -------------------------------------------------------------

/// Peak resident set size so far, in MiB (VmHWM).
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (starts_with(line, "VmHWM:")) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// A fixed, repository-independent reference loop (integer mixing plus a
/// dependent walk over 2 MiB). Timed only as a diagnostic of host speed.
double reference_loop_ms() {
  constexpr std::size_t kSlots = 1u << 19;
  std::vector<std::uint32_t> next(kSlots);
  std::uint64_t x = 0x243f6a8885a308d3ULL;
  for (std::size_t i = 0; i < kSlots; ++i) next[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = kSlots - 1; i > 0; --i) {
    x = splitmix(x);
    std::swap(next[i], next[x % (i + 1)]);
  }
  const std::uint64_t t0 = now_ns();
  std::uint32_t at = 0;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < (1u << 22); ++i) {
    at = next[at];
    acc = splitmix(acc ^ at);
  }
  const std::uint64_t t1 = now_ns();
  volatile std::uint64_t sink = acc;
  (void)sink;
  return static_cast<double>(t1 - t0) / 1e6;
}

// ---- Wire codec micro-timing -------------------------------------------------
//
// Encodes and decodes the workload's dominant payload types through the
// public sim::encode_frame/decode_frame, built with the workload's DHT
// widths and routing parameters.

struct CodecResult {
  double encode_ns_per_kbit = 0;
  double decode_ns_per_kbit = 0;
  double bits_per_msg = 0;
  double measured_over_accounted = 0;
};

CodecResult time_codec(const Workload& w, std::uint64_t seed) {
  const auto widths = dht::DhtWidths::for_system(w.n, w.priorities, 1u << 20);
  const auto params = overlay::RouteParams::for_system(w.n);
  std::mt19937_64 rng(splitmix(seed ^ 0xc0dec));
  std::vector<sim::PayloadPtr> samples;
  auto route = [&](sim::PayloadPtr inner) {
    auto hop = sim::make_payload<overlay::RouteHop>();
    hop->target = rng();
    hop->d = params.debruijn_steps;
    hop->rho = rng() & ((1ULL << hop->d) - 1);
    hop->ideal = rng();
    hop->phase_a_left = static_cast<std::uint32_t>(rng() % (hop->d + 1));
    hop->origin = static_cast<NodeId>(rng() % w.n);
    hop->hops = 1 + rng() % 12;
    hop->header_bits = params.header_bits;
    hop->inner = std::move(inner);
    return sim::PayloadPtr(std::move(hop));
  };
  for (int i = 0; i < 64; ++i) {
    const Element e{1 + rng() % w.priorities, 1 + rng() % (1u << 20)};
    auto put = sim::make_payload<dht::PutRequest>();
    put->element = e;
    put->requester = static_cast<NodeId>(rng() % w.n);
    put->bits = widths.key_bits + widths.element_bits + widths.node_id_bits;
    samples.push_back(route(std::move(put)));
    auto get = sim::make_payload<dht::GetRequest>();
    get->requester = static_cast<NodeId>(rng() % w.n);
    get->request_id = 1 + rng() % 4096;
    get->bits = widths.key_bits + widths.node_id_bits + bits_for_max(4096);
    samples.push_back(route(std::move(get)));
    auto rep = sim::make_payload<dht::GetReply>();
    rep->element = e;
    rep->request_id = 1 + rng() % 4096;
    rep->bits = widths.element_bits + bits_for_max(4096);
    samples.push_back(std::move(rep));
    if (w.lossy) {
      auto ack = sim::make_payload<sim::ReliableAck>();
      ack->acked_seq = rng() % 100000;
      samples.push_back(std::move(ack));
      samples.push_back(sim::make_payload<recovery::Heartbeat>());
    }
  }
  std::vector<std::vector<std::uint8_t>> frames(samples.size());
  std::uint64_t frame_bits = 0, accounted_bits = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    wire::WireWriter wr(frames[i]);
    sim::encode_frame(*samples[i], wr);
    frame_bits += wr.bit_count();
    accounted_bits += samples[i]->size_bits();
  }
  CodecResult out;
  out.bits_per_msg =
      static_cast<double>(frame_bits) / static_cast<double>(samples.size());
  out.measured_over_accounted =
      static_cast<double>(frame_bits) / static_cast<double>(accounted_bits);
  constexpr int kReps = 300;
  const double kbits = static_cast<double>(frame_bits) * kReps / 1000.0;
  std::vector<std::uint8_t> buf;
  std::vector<double> enc, dec;
  for (int trial = 0; trial < 5; ++trial) {
    std::uint64_t t0 = now_ns();
    for (int r = 0; r < kReps; ++r) {
      for (const auto& p : samples) {
        wire::WireWriter wr(buf);
        sim::encode_frame(*p, wr);
      }
    }
    std::uint64_t t1 = now_ns();
    enc.push_back(static_cast<double>(t1 - t0) / kbits);
    std::uint64_t tags = 0;
    t0 = now_ns();
    for (int r = 0; r < kReps; ++r) {
      for (const auto& f : frames) {
        wire::WireReader rd(f);
        tags += sim::decode_frame(rd)->tag();
      }
    }
    t1 = now_ns();
    dec.push_back(static_cast<double>(t1 - t0) / kbits);
    if (tags == 0) die("codec: decoded nothing");
  }
  out.encode_ns_per_kbit = median(enc);
  out.decode_ns_per_kbit = median(dec);
  return out;
}

// ---- The run -------------------------------------------------------------------

struct Op {
  NodeId node;
  bool insert;
  Priority prio;
};

template <class System>
std::uint64_t run_epoch(System& sys) {
  if constexpr (std::is_same_v<System, seap::SeapSystem>) {
    return sys.run_cycle();
  } else {
    return sys.run_batch();
  }
}

/// Per-round record of a traced epoch.
struct RoundSample {
  std::uint64_t ns = 0;
  std::array<std::uint64_t, kNumLayers> msgs{};
  std::uint64_t total = 0;
};

/// Message counts of the model-cost epochs, summed from one Metrics
/// window per epoch, plus the per-epoch extremes.
struct ModelWindow {
  std::uint64_t messages = 0, bits = 0, busy_node_rounds = 0;
  std::uint64_t retransmitted = 0, dropped = 0, scrubs = 0;
  std::map<std::string, std::uint64_t> by_type, max_bits_by_type;
  std::vector<double> congestion, latency_p50, latency_p99;

  void add(const sim::MetricsSnapshot& s, std::vector<std::uint64_t> latencies) {
    messages += s.total_messages;
    bits += s.total_bits;
    busy_node_rounds += s.congestion_hist.total();
    retransmitted += s.retransmitted;
    dropped += s.dropped;
    scrubs += s.scrubs;
    for (const auto& [name, c] : s.messages_by_type) by_type[name] += c;
    for (const auto& [name, b] : s.max_bits_by_type) {
      max_bits_by_type[name] = std::max(max_bits_by_type[name], b);
    }
    congestion.push_back(static_cast<double>(s.max_congestion));
    latency_p50.push_back(static_cast<double>(percentile(latencies, 0.50)));
    latency_p99.push_back(static_cast<double>(percentile(latencies, 0.99)));
  }
};

template <class System>
class Bench {
 public:
  Bench(const Workload& w, std::uint64_t seed, double seconds, bool traced)
      : w_(w), seed_(seed), seconds_(seconds), traced_(traced) {}

  int run() {
    const double ref_start = reference_loop_ms();
    setup();
    window();
    finish_setup_samples();
    const bool ok = check();
    const double ref_end = reference_loop_ms();
    info_["host.ref_ms_start"] = ref_start;
    info_["host.ref_ms_end"] = ref_end;
    if (traced_) {
      const CodecResult c = time_codec(w_, seed_);
      metrics_["wire.encode_ns_per_kbit"] = c.encode_ns_per_kbit;
      metrics_["wire.decode_ns_per_kbit"] = c.decode_ns_per_kbit;
      metrics_["wire.bits_per_msg"] = c.bits_per_msg;
      metrics_["wire.measured_over_accounted"] = c.measured_over_accounted;
    }
    const std::uint64_t attempted = issued_ops_;
    const std::uint64_t completed = ok ? attempted : 0;
    metrics_["completed_op_frac"] =
        static_cast<double>(completed) / static_cast<double>(attempted);
    emit(ok, attempted, attempted - completed);
    return ok ? 0 : 1;
  }

 private:
  typename System::Options options() const {
    typename System::Options o;
    o.num_nodes = w_.n;
    // The deployment (topology, hash functions, protocol rng streams) is
    // fixed; --seed only generates the client inputs, so runs at different
    // seeds do comparable work.
    o.seed = kSystemSeed;
    if constexpr (std::is_same_v<System, seap::SeapSystem>) {
      o.max_priority = w_.priorities;
    } else {
      o.num_priorities = w_.priorities;
    }
    o.wire = w_.lossy;
    o.threads = 1;
    o.shards = 0;  // automatic: 2 shards at n = 2048, 1 below
    if (w_.lossy) {
      o.faults.drop_prob = kDropProb;
      o.reliable.enabled = true;
      o.recovery.enabled = true;
      o.recovery.replication = kReplication;
    }
    return o;
  }

  /// One epoch's ops: ops_per_node per node, exactly half of them inserts
  /// (shuffled across nodes), uniform priorities. Node-major order.
  std::vector<Op> plan_epoch() {
    const std::size_t total = w_.n * w_.ops_per_node;
    std::vector<char> is_insert(total, 0);
    std::fill(is_insert.begin(), is_insert.begin() + total / 2, 1);
    std::shuffle(is_insert.begin(), is_insert.end(), rng_);
    std::vector<Op> ops(total);
    for (std::size_t i = 0; i < total; ++i) {
      ops[i].node = static_cast<NodeId>(i / w_.ops_per_node);
      ops[i].insert = is_insert[i] != 0;
      ops[i].prio = ops[i].insert ? 1 + rng_() % w_.priorities : 0;
    }
    return ops;
  }

  std::vector<Op> plan_preload() {
    std::vector<Op> ops;
    for (std::size_t v = 0; v < w_.n; ++v) {
      for (std::size_t i = 0; i < w_.preload; ++i) {
        ops.push_back({static_cast<NodeId>(v), true, 1 + rng_() % w_.priorities});
      }
    }
    return ops;
  }

  void issue(const std::vector<Op>& ops) {
    const std::uint64_t round = sys_->net().round();
    for (const Op& op : ops) {
      if (op.insert) {
        sys_->insert(op.node, op.prio);
        ++inserts_;
      } else {
        const auto idx = static_cast<std::uint32_t>(delete_round_.size());
        delete_round_.push_back(round);
        delete_done_.push_back(0);
        delete_latency_.push_back(0);
        sys_->delete_min(op.node,
                         [this, idx](std::optional<Element>) { on_delete(idx); });
      }
    }
    issued_ops_ += ops.size();
  }

  void on_delete(std::uint32_t idx) {
    ++delete_done_[idx];
    delete_latency_[idx] = sys_->net().round() - delete_round_[idx];
  }

  /// One bootstrap + preload epoch of a throwaway system (setup_s samples
  /// beyond the measured system's own). Returns seconds; the preload's
  /// schedule must match the measured system's.
  double throwaway_setup(const std::vector<Op>& preload) {
    const std::uint64_t t0 = now_ns();
    System sys(options());
    for (const Op& op : preload) sys.insert(op.node, op.prio);
    run_epoch(sys);
    const double secs = static_cast<double>(now_ns() - t0) / 1e9;
    if (history_hash(sys, 1) != preload_hash_) {
      die("repeated setups produced different schedules");
    }
    return secs;
  }

  /// Bootstrap + preload epoch of the measured system (the first setup_s
  /// sample), then untimed warm-up epochs. The other setups - 1 samples
  /// are throwaway setups spread over the rest of the run, so setup_s sees
  /// the same host phases as the window.
  void setup() {
    rng_.seed(splitmix(seed_ ^ 0x1a9e7ULL));
    preload_ = plan_preload();
    const std::uint64_t t0 = now_ns();
    sys_.emplace(options());
    issue(preload_);
    run_epoch(*sys_);
    setup_secs_.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    preload_hash_ = history_hash(*sys_, 1);
    for (std::size_t e = 0; e < w_.warmup; ++e) {
      issue(plan_epoch());
      run_epoch(*sys_);
    }
  }

  void finish_setup_samples() {
    while (setup_secs_.size() < w_.setups) {
      setup_secs_.push_back(throwaway_setup(preload_));
    }
    metrics_["setup_s"] = median(setup_secs_);
    info_["setup_repeats"] = static_cast<double>(setup_secs_.size());
  }

  /// FNV-1a over (rounds, messages, bits) of the first `upto` epochs.
  static std::uint64_t history_hash(System& sys, std::size_t upto) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
      for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xff;
        h *= 0x100000001b3ULL;
      }
    };
    const auto& hist = sys.cluster().epoch_history();
    for (std::size_t i = 0; i < upto && i < hist.size(); ++i) {
      mix(hist[i].rounds);
      mix(hist[i].messages);
      mix(hist[i].bits);
    }
    return h;
  }

  void window() {
    sim::Network& net = sys_->net();
    net.metrics().take();
    const std::size_t hist0 = sys_->cluster().epoch_history().size();
    std::vector<double> plain_ms, traced_ms;
    std::uint64_t plain_ns = 0, plain_ops = 0, plain_allocs = 0;
    std::uint64_t traced_ns = 0, traced_ops = 0, traced_issue_ns = 0;
    std::uint64_t traced_overhead_ns = 0, traced_epochs = 0;
    std::uint64_t observer_ns = 0, last_mark = 0;
    std::array<std::uint64_t, kNumLayers> prev_layer{};
    std::map<std::string, Layer> layer_cache;

    auto read_layers = [&]() {
      std::array<std::uint64_t, kNumLayers> cur{};
      for (const auto& [name, count] : net.metrics().current().messages_by_type) {
        auto it = layer_cache.find(name);
        if (it == layer_cache.end()) {
          it = layer_cache.emplace(name, layer_of(name)).first;
        }
        cur[it->second] += count;
      }
      return cur;
    };
    auto observer = [&](std::uint64_t) {
      const std::uint64_t enter = now_ns();
      RoundSample r;
      r.ns = enter - last_mark;
      const auto cur = read_layers();
      for (std::size_t l = 0; l < kNumLayers; ++l) {
        r.msgs[l] = cur[l] - prev_layer[l];
        r.total += r.msgs[l];
      }
      prev_layer = cur;
      rounds_.push_back(r);
      last_mark = now_ns();
      observer_ns += last_mark - enter;
    };

    const std::uint64_t start = now_ns();
    const auto budget = static_cast<std::uint64_t>(seconds_ * 1e9);
    for (std::size_t e = 0;; ++e) {
      if (e == w_.model_epochs) model_cost(hist0);
      const std::uint64_t elapsed = now_ns() - start;
      if (e >= w_.model_epochs && setup_secs_.size() < w_.setups - 1 &&
          elapsed >= budget * setup_secs_.size() / (w_.setups - 1)) {
        setup_secs_.push_back(throwaway_setup(preload_));  // between epochs
      }
      const bool enough = e >= w_.model_epochs && e >= 2 * kTailBeyond + 2;
      if (enough && elapsed >= budget) break;
      const std::vector<Op> ops = plan_epoch();
      const std::size_t deletes0 = delete_round_.size();
      const bool trace_this = traced_ && (e / kTraceBlock) % 2 == 1;
      if (!trace_this) {
        const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
        const std::uint64_t t0 = now_ns();
        issue(ops);
        run_epoch(*sys_);
        const std::uint64_t t1 = now_ns();
        plain_allocs += g_allocs.load(std::memory_order_relaxed) - allocs0;
        plain_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
        plain_ns += t1 - t0;
        plain_ops += ops.size();
      } else {
        prev_layer = read_layers();
        const std::size_t round0 = rounds_.size();
        const std::uint64_t obs0 = observer_ns;
        const std::uint64_t t0 = now_ns();
        issue(ops);
        const std::uint64_t t1 = now_ns();
        net.set_round_observer(observer);
        last_mark = now_ns();
        run_epoch(*sys_);
        const std::uint64_t t2 = now_ns();
        net.set_round_observer(nullptr);
        std::uint64_t in_rounds = 0;
        for (std::size_t i = round0; i < rounds_.size(); ++i) {
          in_rounds += rounds_[i].ns;
        }
        // Observer cost sits between rounds; it is tracing, not epoch work.
        const std::uint64_t epoch_ns = (t2 - t0) - (observer_ns - obs0);
        traced_overhead_ns += epoch_ns - (t1 - t0) - in_rounds;
        traced_issue_ns += t1 - t0;
        traced_ms.push_back(static_cast<double>(t2 - t0) / 1e6);
        traced_ns += t2 - t0;
        traced_ops += ops.size();
        ++traced_epochs;
      }
      if (e < w_.model_epochs) model_.add(net.metrics().take(), epoch_latencies(deletes0));
    }
    info_["window_s"] = static_cast<double>(now_ns() - start) / 1e9;
    info_["epochs_untraced"] = static_cast<double>(plain_ms.size());
    info_["epochs_traced"] = static_cast<double>(traced_epochs);
    const std::size_t ops_per_epoch = w_.n * w_.ops_per_node;
    info_["ops_per_epoch"] = static_cast<double>(ops_per_epoch);

    metrics_["ops_per_s"] = fast_tenth_rate(plain_ms, ops_per_epoch);
    // Whole-window figures. They follow the host's slow phases more than
    // the program, so they are reported but not gated (perfbench/README.md).
    info_["ops_per_s.window"] =
        static_cast<double>(plain_ops) / (static_cast<double>(plain_ns) / 1e9);
    info_["epoch_ms_p50"] = median(plain_ms);
    double pct = 0;
    info_["epoch_ms_tail"] = tail(plain_ms, &pct);
    info_["epoch_ms_tail.percentile"] = pct;
    info_["epoch_ms_tail.samples"] = static_cast<double>(plain_ms.size());
    metrics_["sim.allocs_per_op"] =
        static_cast<double>(plain_allocs) / static_cast<double>(plain_ops);
    if (traced_) {
      // Traced and untraced blocks alternate, so both see the same host
      // phases; compare them by the same statistic.
      const double traced_rate = fast_tenth_rate(traced_ms, ops_per_epoch);
      metrics_["trace_overhead_frac"] = 1.0 - traced_rate / metrics_["ops_per_s"];
      attribute(traced_epochs, traced_issue_ns, traced_overhead_ns,
                traced_ns - observer_ns, traced_ops);
    }
  }

  /// deleteMin latencies (rounds, issue to callback) of the deletes issued
  /// since index `from`.
  std::vector<std::uint64_t> epoch_latencies(std::size_t from) const {
    return {delete_latency_.begin() + static_cast<std::ptrdiff_t>(from),
            delete_latency_.end()};
  }

  /// Exact model cost over the first model_epochs timed epochs, plus the
  /// per-layer counts of the same epochs and the schedule fingerprint.
  /// Extremes (congestion, latency percentiles) are taken per epoch and
  /// reported as their median over the epochs.
  void model_cost(std::size_t hist0) {
    peak_rss_ = peak_rss_mb();
    const ModelWindow& m = model_;
    const auto& hist = sys_->cluster().epoch_history();
    const auto k = static_cast<double>(w_.model_epochs);
    std::uint64_t rounds = 0;
    for (std::size_t i = hist0; i < hist.size(); ++i) rounds += hist[i].rounds;
    const double ops = k * static_cast<double>(w_.n * w_.ops_per_node);
    const auto& by = m.by_type;
    const auto msgs = static_cast<double>(m.messages);
    auto per = [](std::uint64_t a, double b) {
      return static_cast<double>(a) / b;
    };
    metrics_["rounds_per_epoch"] = per(rounds, k);
    metrics_["msgs_per_op"] = per(m.messages, ops);
    metrics_["bits_per_op"] = per(m.bits, ops);
    metrics_["max_congestion"] = median(m.congestion);
    metrics_["latency_rounds_p50"] = median(m.latency_p50);
    metrics_["latency_rounds_p99"] = median(m.latency_p99);
    metrics_["peak_rss_mb"] = peak_rss_;

    const std::uint64_t acks = count_of(by, "transport.ack");
    const std::uint64_t background = sum_where(by, [](const std::string& a) {
      return starts_with(a, "recovery.") && a != "recovery.delta";
    });
    const double data = msgs - static_cast<double>(acks + background);
    std::uint64_t agg_max_bits = 0;
    for (const auto& [name, bits] : m.max_bits_by_type) {
      if (layer_of(name) == kAggregation) agg_max_bits = std::max(agg_max_bits, bits);
    }
    const auto routed = sum_where(by, is_routed);
    metrics_["sim.msgs_per_round"] = per(m.messages, static_cast<double>(rounds));
    metrics_["sim.busy_node_round_frac"] =
        per(m.busy_node_rounds, static_cast<double>(rounds * w_.n));
    metrics_["overlay.hops_per_op"] = per(routed, ops);
    metrics_["overlay.routed_msg_share"] = per(routed, msgs);
    metrics_["dht.msgs_per_op"] = per(
        sum_where(by, [](const std::string& a) { return starts_with(a, "dht."); }), ops);
    metrics_["dht.get_replies_per_op"] = per(count_of(by, "dht.get_reply"), ops);
    metrics_["aggregation.msgs_per_epoch"] = per(
        sum_where(by, [](const std::string& a) { return layer_of(a) == kAggregation; }), k);
    metrics_["aggregation.max_msg_bits"] = static_cast<double>(agg_max_bits);
    metrics_["kselect.msgs_per_op"] = per(
        sum_where(by, [](const std::string& a) { return starts_with(a, "kselect."); }), ops);
    metrics_["reliable.acks_per_msg"] = per(acks, data);
    metrics_["reliable.retransmits_per_msg"] = per(m.retransmitted, data);
    metrics_["faults.drop_frac"] = per(m.dropped, msgs + static_cast<double>(m.dropped));
    metrics_["recovery.heartbeats_per_round"] =
        per(count_of(by, "recovery.heartbeat"), static_cast<double>(rounds));
    metrics_["recovery.deltas_per_epoch"] = per(count_of(by, "recovery.delta"), k);
    metrics_["recovery.scrubs_per_epoch"] = per(m.scrubs, k);
    for (const auto& [name, count] : by) {
      if (layer_of(name) == kOther) die("unclassified action '" + name + "'");
    }

    // Schedule fingerprint: the per-epoch (rounds, messages, bits) of every
    // epoch so far plus the model cost, hashed.
    std::uint64_t h = history_hash(*sys_, hist.size());
    for (const char* name : {"rounds_per_epoch", "msgs_per_op", "bits_per_op",
                             "max_congestion", "latency_rounds_p50",
                             "latency_rounds_p99"}) {
      std::uint64_t bits = 0;
      const double v = metrics_[name];
      std::memcpy(&bits, &v, sizeof bits);
      h = splitmix(h ^ bits);
    }
    fingerprint_ = h;
  }

  /// Per-layer host attribution over the traced epochs. A round's time is
  /// a fixed per-round part (the intercept of a least-squares fit of round
  /// time on delivered messages, charged to sim) plus the rest, split over
  /// the layers in proportion to the messages the round delivered.
  void attribute(std::uint64_t epochs, std::uint64_t issue_ns,
                 std::uint64_t overhead_ns, std::uint64_t measured_ns,
                 std::uint64_t ops) {
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    const auto nr = static_cast<double>(rounds_.size());
    for (const RoundSample& r : rounds_) {
      const auto x = static_cast<double>(r.total);
      const auto y = static_cast<double>(r.ns);
      sx += x;
      sy += y;
      sxx += x * x;
      sxy += x * y;
    }
    const double var = sxx - sx * sx / nr;
    double slope = var > 0 ? (sxy - sx * sy / nr) / var : 0.0;
    slope = std::max(slope, 0.0);
    const double intercept = std::max(0.0, (sy - slope * sx) / nr);

    std::array<double, kNumLayers> ns{};
    std::vector<double> round_us;
    std::array<std::uint64_t, kNumLayers> active_rounds{};
    for (const RoundSample& r : rounds_) {
      const auto y = static_cast<double>(r.ns);
      round_us.push_back(y / 1e3);
      const double fixed = r.total == 0 ? y : std::min(intercept, y);
      ns[kSim] += fixed;
      for (std::size_t l = 0; l < kNumLayers; ++l) {
        if (r.msgs[l] == 0) continue;
        ++active_rounds[l];
        ns[l] += (y - fixed) * static_cast<double>(r.msgs[l]) /
                 static_cast<double>(r.total);
      }
    }
    ns[kRuntime] += static_cast<double>(overhead_ns);
    ns[kClient] += static_cast<double>(issue_ns);
    double attributed = 0;
    for (double v : ns) attributed += v;
    const auto measured = static_cast<double>(measured_ns);
    for (std::size_t l = 0; l < kNumLayers; ++l) {
      if (l == kOther) continue;
      metrics_[std::string(kLayerNames[l]) + ".host_share"] = ns[l] / measured;
    }
    attributed_frac_ = attributed / measured;
    info_["trace.attributed_frac"] = attributed_frac_;
    const auto e = static_cast<double>(epochs);
    metrics_["sim.ns_per_node_round"] = intercept / static_cast<double>(w_.n);
    metrics_["sim.ns_per_msg"] = slope;
    metrics_["sim.round_us_p50"] = median(round_us);
    double pct = 0;
    metrics_["sim.round_us_tail"] = tail(round_us, &pct);
    info_["sim.round_us_tail.percentile"] = pct;
    info_["sim.round_us_tail.samples"] = nr;
    metrics_["aggregation.rounds_per_epoch"] =
        static_cast<double>(active_rounds[kAggregation]) / e;
    metrics_["kselect.rounds_per_epoch"] =
        static_cast<double>(active_rounds[kKselect]) / e;
    metrics_["runtime.epoch_overhead_ms"] =
        static_cast<double>(overhead_ns) / e / 1e6;
    metrics_["client.issue_ns_per_op"] =
        static_cast<double>(issue_ns) / static_cast<double>(ops);
  }

  /// Output check, outside the timed window: the protocol's semantics
  /// checker over the whole trace, and every issued op completed once.
  bool check() {
    bool ok = true;
    auto fail = [&ok](const std::string& why) {
      std::printf("CHECK FAILED: %s\n", why.c_str());
      ok = false;
    };
    const auto trace = sys_->gather_trace();
    std::uint64_t ins = 0, dels = 0;
    for (const auto& r : trace) (r.is_insert ? ins : dels) += 1;
    if (ins != inserts_ || dels != delete_done_.size()) {
      fail("trace holds " + std::to_string(ins) + " inserts and " +
           std::to_string(dels) + " deletes; issued " + std::to_string(inserts_) +
           " and " + std::to_string(delete_done_.size()));
    }
    for (std::size_t i = 0; i < delete_done_.size(); ++i) {
      if (delete_done_[i] != 1) {
        fail("deleteMin #" + std::to_string(i) + " completed " +
             std::to_string(delete_done_[i]) + " times");
        break;
      }
    }
    core::CheckResult res;
    if constexpr (std::is_same_v<System, seap::SeapSystem>) {
      res = core::check_seap_trace(trace);
    } else {
      res = core::check_skeap_trace(trace);
    }
    if (!res.ok) fail(res.error);
    if (traced_ && std::abs(attributed_frac_ - 1.0) > 0.05) {
      fail("per-layer host shares sum to " + std::to_string(attributed_frac_) +
           " of the traced epoch time");
    }
    return ok;
  }

  void emit(bool ok, std::uint64_t attempted, std::uint64_t failed) {
    std::printf("workload %s seed %llu n %zu shards %zu wire %d trace %d\n",
                w_.name, static_cast<unsigned long long>(seed_), w_.n,
                sys_->net().num_shards(), w_.lossy ? 1 : 0, traced_ ? 1 : 0);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"fingerprint\": \"%016llx\", \"metrics\": {",
                ok ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(fingerprint_));
    const char* sep = "";
    for (const auto& [k, v] : metrics_) {
      std::printf("%s\"%s\": %.17g", sep, k.c_str(), v);
      sep = ", ";
    }
    std::printf("}, \"info\": {");
    sep = "";
    for (const auto& [k, v] : info_) {
      std::printf("%s\"%s\": %.17g", sep, k.c_str(), v);
      sep = ", ";
    }
    std::printf("}}\n");
  }

  const Workload& w_;
  const std::uint64_t seed_;
  const double seconds_;
  const bool traced_;
  std::optional<System> sys_;
  std::mt19937_64 rng_;
  std::uint64_t issued_ops_ = 0, inserts_ = 0;
  std::vector<std::uint64_t> delete_round_;
  std::vector<std::uint32_t> delete_done_;
  std::vector<std::uint64_t> delete_latency_;
  std::vector<RoundSample> rounds_;
  std::map<std::string, double> metrics_, info_;
  std::vector<Op> preload_;
  std::uint64_t preload_hash_ = 0;
  std::vector<double> setup_secs_;
  ModelWindow model_;
  std::uint64_t fingerprint_ = 0;
  double peak_rss_ = 0;
  double attributed_frac_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") workload = val;
    else if (key == "--seed") seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds") seconds = std::strtod(val, nullptr);
    else if (key == "--trace") trace = std::atoi(val);
    else die("unknown flag " + key);
  }
  for (const Workload& w : kWorkloads) {
    if (workload != w.name) continue;
    if (w.seap) return Bench<seap::SeapSystem>(w, seed, seconds, trace != 0).run();
    return Bench<skeap::SkeapSystem>(w, seed, seconds, trace != 0).run();
  }
  die("unknown workload '" + workload + "'");
}
