// Tests for the parallel-loop helpers, wall timer, and PPM/PGM writers.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <numeric>
#include <vector>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "core/time.hpp"
#include "geo/ppm.hpp"
#include "geo/render.hpp"

namespace dcn {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, 1000, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyAndReversedRangesAreNoops) {
  int calls = 0;
  parallel_for(5, 5, [&](std::int64_t) { ++calls; });
  parallel_for(7, 3, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, SmallTripCountsRunSerially) {
  // Below the grain the loop must still produce correct results.
  std::vector<int> out(10, 0);
  parallel_for(0, 10, [&](std::int64_t i) {
    out[static_cast<std::size_t>(i)] = static_cast<int>(i * i);
  },
               /*grain=*/1000);
  EXPECT_EQ(out[9], 81);
}

TEST(ParallelForChunked, PartitionIsExact) {
  std::vector<std::atomic<int>> hits(5000);
  parallel_for_chunked(0, 5000, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ReductionMatchesSerial) {
  const std::int64_t n = 4096;
  std::vector<double> values(static_cast<std::size_t>(n));
  Rng rng(3);
  for (auto& v : values) v = rng.uniform();
  std::vector<double> partial(static_cast<std::size_t>(n));
  parallel_for(0, n, [&](std::int64_t i) {
    partial[static_cast<std::size_t>(i)] =
        values[static_cast<std::size_t>(i)] * 2.0;
  });
  const double serial =
      2.0 * std::accumulate(values.begin(), values.end(), 0.0);
  const double parallel =
      std::accumulate(partial.begin(), partial.end(), 0.0);
  EXPECT_NEAR(parallel, serial, 1e-9);
}

TEST(Threads, SetNumThreadsRoundTrips) {
  const int before = hardware_threads();
  set_num_threads(2);
  EXPECT_EQ(hardware_threads(), hardware_threads() >= 1 ? hardware_threads()
                                                        : 1);
  set_num_threads(0);  // reset to default
  EXPECT_GE(hardware_threads(), 1);
  (void)before;
}

TEST(WallTimer, MeasuresElapsedTime) {
  WallTimer timer;
  // Busy-wait a tiny amount of real time.
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink = sink + i * 1e-9;
  EXPECT_GT(timer.seconds(), 0.0);
  EXPECT_GT(timer.milliseconds(), 0.0);
  const double before = timer.seconds();
  timer.reset();
  EXPECT_LT(timer.seconds(), before + 1.0);
}

geo::Orthophoto tiny_photo() {
  geo::Orthophoto photo;
  for (auto& band : photo.bands) band = geo::Raster(8, 10, 0.5f);
  photo.bands[0].at(0, 0) = 1.0f;
  return photo;
}

TEST(Ppm, RgbFileHasCorrectHeaderAndSize) {
  const std::string path = testing::TempDir() + "/dcn_test.ppm";
  geo::write_ppm_rgb(path, tiny_photo());
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  int w = 0, h = 0, maxval = 0;
  in >> magic >> w >> h >> maxval;
  EXPECT_EQ(magic, "P6");
  EXPECT_EQ(w, 10);
  EXPECT_EQ(h, 8);
  EXPECT_EQ(maxval, 255);
  in.get();  // single whitespace after header
  std::vector<char> pixels(10 * 8 * 3);
  in.read(pixels.data(), static_cast<std::streamsize>(pixels.size()));
  EXPECT_EQ(in.gcount(), static_cast<std::streamsize>(pixels.size()));
  // First pixel's red channel is 255 (we set band 0 to 1.0).
  EXPECT_EQ(static_cast<unsigned char>(pixels[0]), 255);
}

TEST(Pgm, GrayscaleNormalizes) {
  const std::string path = testing::TempDir() + "/dcn_test.pgm";
  geo::Raster raster(4, 4, 3.0f);
  raster.at(0, 0) = 1.0f;  // min
  raster.at(3, 3) = 5.0f;  // max
  geo::write_pgm(path, raster);
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  int w, h, maxval;
  in >> magic >> w >> h >> maxval;
  EXPECT_EQ(magic, "P5");
  in.get();
  std::vector<unsigned char> pixels(16);
  in.read(reinterpret_cast<char*>(pixels.data()), 16);
  EXPECT_EQ(pixels[0], 0);     // min -> 0
  EXPECT_EQ(pixels[15], 255);  // max -> 255
}

TEST(PatchPpm, DrawsBoxOutline) {
  const std::string path = testing::TempDir() + "/dcn_patch.ppm";
  Tensor patch(Shape{4, 16, 16}, 0.0f);
  const float box[4] = {0.5f, 0.5f, 0.5f, 0.5f};
  geo::write_patch_ppm(path, patch, box);
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  int w, h, maxval;
  in >> magic >> w >> h >> maxval;
  in.get();
  std::vector<unsigned char> pixels(16 * 16 * 3);
  in.read(reinterpret_cast<char*>(pixels.data()),
          static_cast<std::streamsize>(pixels.size()));
  // Box corner (4,4) painted white on the black patch.
  EXPECT_EQ(pixels[(4 * 16 + 4) * 3], 255);
  // Center remains black.
  EXPECT_EQ(pixels[(8 * 16 + 8) * 3], 0);
}

TEST(PatchPpm, RejectsWrongRank) {
  EXPECT_THROW(
      geo::write_patch_ppm(testing::TempDir() + "/x.ppm", Tensor(Shape{16, 16})),
      Error);
}

}  // namespace
}  // namespace dcn
