#include "nn/pool.hpp"

#include <algorithm>
#include <limits>
#include <type_traits>
#include <utility>

#include "core/error.hpp"
#include "core/parallel.hpp"

namespace dcn {
namespace {

// Input floats per pool task. The plane split depends on the shape alone,
// never on the thread count, and a pool smaller than one task runs inline.
constexpr std::int64_t kPoolTaskFloats = std::int64_t{1} << 16;

// The one max-pool loop: output cell (oy, ox) of every [N, C] plane is the
// max over input rows rows(oy) x columns cols(ox), each a half-open
// [start, end) range, compared in row-major order, so a NaN never wins and
// ties keep the first maximum. The planes split into contiguous runs, one
// compute task each; a plane is computed the same on any thread, so the
// output and argmax are bit-identical at any thread count.
template <typename RowWindow, typename ColWindow>
Tensor pool_windows(const Tensor& input, std::int64_t oh, std::int64_t ow,
                    const RowWindow& rows, const ColWindow& cols,
                    std::vector<std::int64_t>* argmax) {
  const std::int64_t planes = input.dim(0) * input.dim(1);
  const std::int64_t h = input.dim(2);
  const std::int64_t w = input.dim(3);
  Tensor output(Shape{input.dim(0), input.dim(1), oh, ow});
  std::int64_t* best_at = nullptr;
  if (argmax != nullptr) {
    argmax->assign(static_cast<std::size_t>(output.numel()), 0);
    best_at = argmax->data();
  }
  // Inference passes no argmax and skips the index bookkeeping.
  const auto pool_plane = [&](std::int64_t p, auto track) {
    constexpr bool kTrack = decltype(track)::value;
    const std::int64_t plane_base = p * h * w;
    const float* plane = input.data() + plane_base;
    float* out = output.data() + p * oh * ow;
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      const auto [y0, y1] = rows(oy);
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        const auto [x0, x1] = cols(ox);
        float best = -std::numeric_limits<float>::infinity();
        [[maybe_unused]] std::int64_t best_idx = y0 * w + x0;
        for (std::int64_t iy = y0; iy < y1; ++iy) {
          for (std::int64_t ix = x0; ix < x1; ++ix) {
            const float v = plane[iy * w + ix];
            if (v > best) {
              best = v;
              if constexpr (kTrack) best_idx = iy * w + ix;
            }
          }
        }
        if constexpr (kTrack) {
          best_at[out - output.data()] = plane_base + best_idx;
        }
        *out++ = best;
      }
    }
  };
  const std::int64_t tasks = std::min(
      planes, std::max<std::int64_t>(1, input.numel() / kPoolTaskFloats));
  run_compute_tasks(static_cast<int>(tasks), [&](int t) {
    const auto [first, last] = chunk_range(planes, tasks, t);
    for (std::int64_t p = first; p < last; ++p) {
      if (best_at != nullptr) {
        pool_plane(p, std::true_type{});
      } else {
        pool_plane(p, std::false_type{});
      }
    }
  });
  return output;
}

Tensor scatter_by_argmax(const Shape& input_shape,
                         const std::vector<std::int64_t>& argmax,
                         const Tensor& grad_output, const char* layer) {
  DCN_CHECK(!argmax.empty()) << layer << "::backward without forward";
  DCN_CHECK(grad_output.numel() == static_cast<std::int64_t>(argmax.size()))
      << layer << " grad numel mismatch";
  Tensor grad_input(input_shape);
  const std::int64_t n = grad_output.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    grad_input[argmax[static_cast<std::size_t>(i)]] += grad_output[i];
  }
  return grad_input;
}

}  // namespace

Tensor max_pool2d(const Tensor& input, std::int64_t kernel,
                  std::int64_t stride, std::vector<std::int64_t>* argmax) {
  DCN_CHECK(input.rank() == 4) << "max_pool2d expects NCHW, got "
                               << input.shape().to_string();
  DCN_CHECK(kernel > 0 && stride > 0) << "pool geometry";
  // Checked before the division: it truncates toward zero, so a plane
  // smaller than the window would otherwise claim one output that reads
  // past the plane.
  DCN_CHECK(input.dim(2) >= kernel && input.dim(3) >= kernel)
      << "max_pool2d output empty for " << input.shape().to_string();
  const std::int64_t oh = (input.dim(2) - kernel) / stride + 1;
  const std::int64_t ow = (input.dim(3) - kernel) / stride + 1;
  const auto window = [kernel, stride](std::int64_t o) {
    return std::pair{o * stride, o * stride + kernel};
  };
  return pool_windows(input, oh, ow, window, window, argmax);
}

Tensor adaptive_max_pool2d(const Tensor& input, std::int64_t out_h,
                           std::int64_t out_w,
                           std::vector<std::int64_t>* argmax) {
  DCN_CHECK(input.rank() == 4) << "adaptive_max_pool2d expects NCHW, got "
                               << input.shape().to_string();
  const std::int64_t h = input.dim(2);
  const std::int64_t w = input.dim(3);
  DCN_CHECK(h >= 1 && w >= 1) << "empty input plane";
  DCN_CHECK(out_h > 0 && out_w > 0) << "adaptive pool output size";
  const auto bins = [](std::int64_t in, std::int64_t out) {
    return [in, out](std::int64_t i) {
      return std::pair{(i * in) / out, ((i + 1) * in + out - 1) / out};
    };
  };
  return pool_windows(input, out_h, out_w, bins(h, out_h), bins(w, out_w),
                      argmax);
}

MaxPool2d::MaxPool2d(std::int64_t kernel_size, std::int64_t stride)
    : kernel_size_(kernel_size), stride_(stride) {
  DCN_CHECK(kernel_size > 0 && stride > 0) << "pool geometry";
}

Tensor MaxPool2d::forward(const Tensor& input) {
  Tensor output = max_pool2d(input, kernel_size_, stride_, &argmax_);
  input_shape_ = input.shape();
  return output;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  return scatter_by_argmax(input_shape_, argmax_, grad_output, "MaxPool2d");
}

AdaptiveMaxPool2d::AdaptiveMaxPool2d(std::int64_t out_h, std::int64_t out_w)
    : out_h_(out_h), out_w_(out_w) {
  DCN_CHECK(out_h > 0 && out_w > 0) << "adaptive pool output size";
}

Tensor AdaptiveMaxPool2d::forward(const Tensor& input) {
  Tensor output = adaptive_max_pool2d(input, out_h_, out_w_, &argmax_);
  input_shape_ = input.shape();
  return output;
}

Tensor AdaptiveMaxPool2d::backward(const Tensor& grad_output) {
  return scatter_by_argmax(input_shape_, argmax_, grad_output,
                           "AdaptiveMaxPool2d");
}

}  // namespace dcn
