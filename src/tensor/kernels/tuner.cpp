#include "tensor/kernels/tuner.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#ifdef __unix__
#include <unistd.h>
#endif

#include "core/logging.hpp"
#include "profiler/counters.hpp"

namespace dcn::kernels {
namespace {

constexpr char kMagic[] = "dcn-tile-cache-v1";

// Pinned K block; mirrors gemm.cpp's kBlockK (the one blocking parameter
// the determinism contract forbids tuning — see tuner.hpp).
constexpr std::int64_t kPinnedKc = 256;

// Macro blockings searched per sgemm tile. qgemm's work split is fixed by
// the shape (qgemm.cpp), so its tiles carry the default blocking alone.
constexpr std::int64_t kBlockings[][2] = {{128, 256}, {64, 512}, {256, 128}};

// Shape-class bucket: exact up to 16, then the next power of two. Keys the
// cache by problem *class* so structurally identical GEMMs across layers,
// trials, and batches share one tuning.
std::int64_t class_of(std::int64_t d) {
  if (d <= 0) return 0;
  if (d <= 16) return d;
  std::int64_t c = 16;
  while (c < d) c <<= 1;
  return c;
}

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ull;
  }
  return h;
}

std::string resolve_cache_dir() {
  if (const char* dir = std::getenv("DCN_TUNER_CACHE")) {
    if (*dir != '\0') return dir;
  }
  if (const char* xdg = std::getenv("XDG_CACHE_HOME")) {
    if (*xdg != '\0') return std::string(xdg) + "/dcn-tuner";
  }
  if (const char* home = std::getenv("HOME")) {
    if (*home != '\0') return std::string(home) + "/.cache/dcn-tuner";
  }
  return "/tmp/dcn-tuner";
}

// (mr, nr) of every micro tile the precision's GEMM can run, in the
// variant's preference order: 'f' (sgemm) or 'q' (qgemm).
std::vector<std::pair<std::int64_t, std::int64_t>> tiles_of(
    const KernelVariant& variant, char precision) {
  std::vector<std::pair<std::int64_t, std::int64_t>> tiles;
  if (precision == 'q') {
    for (const QgemmMicroKernel& k : variant.qgemm) {
      tiles.emplace_back(k.mr, k.nr);
    }
  } else {
    for (const SgemmMicroKernel& k : variant.sgemm) {
      tiles.emplace_back(k.mr, k.nr);
    }
  }
  return tiles;
}

bool valid_for(const KernelVariant& variant, char precision,
               const TileConfig& c) {
  const auto tiles = tiles_of(variant, precision);
  return std::find(tiles.begin(), tiles.end(), std::make_pair(c.mr, c.nr)) !=
             tiles.end() &&
         c.mc >= c.mr && c.nc >= c.nr && c.kc == kPinnedKc;
}

TileConfig with_blocking(std::int64_t mr, std::int64_t nr,
                         const std::int64_t (&blocking)[2]) {
  TileConfig c;
  c.mr = mr;
  c.nr = nr;
  c.mc = std::max(blocking[0], mr);
  c.nc = std::max(blocking[1], nr);
  c.kc = kPinnedKc;
  return c;
}

TileConfig default_config(const KernelVariant& variant, char precision) {
  const auto [mr, nr] = tiles_of(variant, precision).front();
  return with_blocking(mr, nr, kBlockings[0]);
}

std::vector<TileConfig> candidates(const KernelVariant& variant,
                                   char precision) {
  // Macro-blocking variants per tile: the square-ish default plus a
  // wide-N and a tall-M split. These move only the tile visit order, so
  // every candidate is bit-identical — pure scheduling search.
  const std::size_t blockings = precision == 'q' ? 1 : std::size(kBlockings);
  const TileConfig def = default_config(variant, precision);
  std::vector<TileConfig> out{def};
  for (const auto& [mr, nr] : tiles_of(variant, precision)) {
    for (std::size_t b = 0; b < blockings; ++b) {
      const TileConfig c = with_blocking(mr, nr, kBlockings[b]);
      if (c.mr == def.mr && c.nr == def.nr && c.mc == def.mc &&
          c.nc == def.nc) {
        continue;  // already candidate #0
      }
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

TileTuner::TileTuner() { dir_ = resolve_cache_dir(); }

TileTuner& TileTuner::global() {
  static TileTuner tuner;
  return tuner;
}

std::string TileTuner::cache_key(const KernelVariant& variant, char precision,
                                 std::int64_t m, std::int64_t n,
                                 std::int64_t k) {
  std::ostringstream os;
  os << "tile:v1:" << variant.name << ':' << precision << ":m"
     << class_of(m) << ":n" << class_of(n) << ":k" << class_of(k);
  // The registered tile table is part of the content: a rebuilt binary
  // offering different tiles must not replay a winner it cannot run.
  os << ":tiles";
  for (const auto& [mr, nr] : tiles_of(variant, precision)) {
    os << ',' << mr << 'x' << nr;
  }
  return os.str();
}

std::string TileTuner::entry_path(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (dir_.empty()) return "";
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.tile",
                static_cast<unsigned long long>(fnv1a64(key)));
  return dir_ + "/" + name;
}

TileConfig TileTuner::choose(const KernelVariant& variant, char precision,
                             std::int64_t m, std::int64_t n, std::int64_t k,
                             const MeasureFn& measure) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!enabled_) return default_config(variant, precision);
    if (forced_mr_ > 0) {
      const TileConfig forced =
          with_blocking(forced_mr_, forced_nr_, kBlockings[0]);
      if (valid_for(variant, precision, forced)) return forced;
    }
  }
  const std::string key = cache_key(variant, precision, m, n, k);
  {
    // Single flight per class: a thread that misses while another thread
    // loads or tunes the same class waits for it and then hits the memo.
    // Compute threads that first meet a conv class together (inside
    // per-sample tasks) thus tune it once, and the memo and the disk entry
    // hold the same winner. Different classes still load or tune at once.
    std::unique_lock<std::mutex> lock(mutex_);
    flight_done_.wait(lock, [&] { return in_flight_.count(key) == 0; });
    const auto it = memo_.find(key);
    if (it != memo_.end()) {
      ++stats_.memo_hits;
      const TileConfig config = it->second;
      lock.unlock();
      profiler::counter_add("tuner_cache.hit");
      return config;
    }
    ++stats_.memo_misses;
    in_flight_.insert(key);
  }
  profiler::counter_add("tuner_cache.miss");
  TileConfig config;
  try {
    if (!load_entry(key, variant, precision, &config)) {
      config = tune(variant, precision, m, n, k, measure);
    }
  } catch (...) {
    end_flight(key, nullptr);
    throw;
  }
  end_flight(key, &config);
  return config;
}

void TileTuner::end_flight(const std::string& key, const TileConfig* config) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (config != nullptr) memo_.emplace(key, *config);
    in_flight_.erase(key);
  }
  flight_done_.notify_all();
}

TileConfig TileTuner::tune(const KernelVariant& variant, char precision,
                           std::int64_t m, std::int64_t n, std::int64_t k,
                           const MeasureFn& measure) {
  const std::vector<TileConfig> cands = candidates(variant, precision);
  // Three interleaved passes with a per-candidate min: slow clock/thermal
  // drift during the tune hits every candidate alike instead of favoring
  // whichever happened to be measured during a fast stretch.
  std::vector<double> ms(cands.size(), 1.0e30);
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < cands.size(); ++i) {
      ms[i] = std::min(ms[i], measure(cands[i]));
    }
  }
  // Candidate #0 (the variant default) holds the title unless a challenger
  // is clearly — not just measurably — faster; the 10% hysteresis keeps
  // probe noise from dethroning the default on a near-tie, so a tuned
  // configuration is never the loser of a coin flip. Real wins (a better
  // row tile for a skinny FC shape, a wider tile for a wide conv lowering)
  // clear this bar comfortably; the few percent a near-tie could offer is
  // noise-sized on shared hosts anyway.
  std::size_t best_i = 0;
  for (std::size_t i = 1; i < cands.size(); ++i) {
    if (ms[i] < 0.90 * ms[best_i]) best_i = i;
  }
  const TileConfig best = cands[best_i];
  const double best_ms = ms[best_i];
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.tuned;
  }
  profiler::counter_add("tuner.tuned");
  DCN_LOG_DEBUG << "tuned " << variant.name << '/' << precision << ' ' << m
                << 'x' << n << 'x' << k << " -> " << best.mr << 'x' << best.nr
                << " blocks " << best.mc << 'x' << best.nc << " ("
                << best_ms << " ms)";
  store_entry(cache_key(variant, precision, m, n, k), best, best_ms);
  return best;
}

bool TileTuner::load_entry(const std::string& key,
                           const KernelVariant& variant, char precision,
                           TileConfig* config) {
  const std::string path = entry_path(key);
  if (path.empty()) return false;
  std::ifstream in(path);
  if (!in.is_open()) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.disk_misses;
    profiler::counter_add("tuner_cache.disk_miss");
    return false;
  }
  std::string magic, line;
  std::getline(in, magic);
  TileConfig c;
  std::string stored_key;
  bool have[5] = {};
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string field = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    char* end = nullptr;
    const std::int64_t num = std::strtoll(value.c_str(), &end, 10);
    if (field == "key") {
      stored_key = value;
    } else if (field == "mr" && end != value.c_str()) {
      c.mr = num;
      have[0] = true;
    } else if (field == "nr" && end != value.c_str()) {
      c.nr = num;
      have[1] = true;
    } else if (field == "mc" && end != value.c_str()) {
      c.mc = num;
      have[2] = true;
    } else if (field == "nc" && end != value.c_str()) {
      c.nc = num;
      have[3] = true;
    } else if (field == "kc" && end != value.c_str()) {
      c.kc = num;
      have[4] = true;
    }
  }
  const bool complete = have[0] && have[1] && have[2] && have[3] && have[4];
  // Content addressing is the integrity check: the magic, the *full* key
  // (not just its hash — collisions and truncation both surface here), and
  // the tile's presence in the running binary's variant table must all
  // agree, or the entry is corrupt and gets re-tuned.
  if (magic != kMagic || stored_key != key || !complete ||
      !valid_for(variant, precision, c)) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.corrupt_entries;
    }
    profiler::counter_add("tuner_cache.corrupt");
    DCN_LOG_WARN << "tuner cache entry " << path
                 << " is corrupt or stale; re-tuning";
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.disk_hits;
  }
  profiler::counter_add("tuner_cache.disk_hit");
  *config = c;
  return true;
}

void TileTuner::store_entry(const std::string& key, const TileConfig& config,
                            double best_ms) {
  const std::string path = entry_path(key);
  if (path.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  if (ec) return;  // cache is best-effort; compute is already done
  // Writer-unique tmp name: concurrent processes tuning the same class must
  // not interleave writes into one tmp file (the rename is atomic; a torn
  // tmp would merely be detected as corrupt, but avoid it anyway).
  std::size_t writer =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffff;
#ifdef __unix__
  writer ^= static_cast<std::size_t>(::getpid()) << 16;
#endif
  const std::string tmp = path + ".tmp" + std::to_string(writer);
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out.is_open()) return;
    out << kMagic << '\n';
    out << "key=" << key << '\n';
    out << "mr=" << config.mr << '\n';
    out << "nr=" << config.nr << '\n';
    out << "mc=" << config.mc << '\n';
    out << "nc=" << config.nc << '\n';
    out << "kc=" << config.kc << '\n';
    out << "ms=" << best_ms << '\n';
  }
  // Atomic publish: a concurrent reader sees the old entry or the new one,
  // never a torn write.
  std::filesystem::rename(tmp, path, ec);
  if (ec) std::filesystem::remove(tmp, ec);
}

void TileTuner::set_enabled(bool enabled) {
  std::lock_guard<std::mutex> lock(mutex_);
  enabled_ = enabled;
}

bool TileTuner::enabled() {
  std::lock_guard<std::mutex> lock(mutex_);
  return enabled_;
}

void TileTuner::set_cache_dir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mutex_);
  dir_ = dir.empty() ? resolve_cache_dir() : dir;
  memo_.clear();
}

std::string TileTuner::cache_dir() {
  std::lock_guard<std::mutex> lock(mutex_);
  return dir_;
}

void TileTuner::clear_memory() {
  std::lock_guard<std::mutex> lock(mutex_);
  memo_.clear();
}

TunerStats TileTuner::stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void TileTuner::reset_stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = TunerStats{};
}

void TileTuner::force_tile(std::int64_t mr, std::int64_t nr) {
  std::lock_guard<std::mutex> lock(mutex_);
  forced_mr_ = mr;
  forced_nr_ = nr;
}

TileTuner::ScopedForcedTile::ScopedForcedTile(std::int64_t mr,
                                              std::int64_t nr) {
  TileTuner::global().force_tile(mr, nr);
}

TileTuner::ScopedForcedTile::~ScopedForcedTile() {
  TileTuner::global().force_tile(0, 0);
}

}  // namespace dcn::kernels
