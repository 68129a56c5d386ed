// Tests for the thread setting, wall timer, and PPM/PGM writers.
#include <gtest/gtest.h>

#include <fstream>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "core/time.hpp"
#include "geo/ppm.hpp"
#include "geo/render.hpp"

namespace dcn {
namespace {

TEST(Threads, SetNumThreadsRoundTrips) {
  set_num_threads(2);
  EXPECT_EQ(compute_threads(), 2);
  set_num_threads(0);  // back to the hardware default
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(compute_threads(), hw > 0 ? static_cast<int>(hw) : 1);
  set_num_threads(2);
  set_num_threads(-3);  // below 1 also resets
  EXPECT_EQ(compute_threads(), hw > 0 ? static_cast<int>(hw) : 1);
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
