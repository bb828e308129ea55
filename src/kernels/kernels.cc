#include "kernels/kernels.h"

#include "ir/parser.h"
#include "support/error.h"
#include "support/str.h"

namespace srra::kernels {

namespace {

// Bounds are compile-time constants in the paper's experiments; the values
// below are the calibration choices recorded in DESIGN.md §4 (the published
// text's digits are OCR-damaged, but all derived quantities in the worked
// example match the paper exactly with these choices).

constexpr const char* kExampleSrc = R"(
kernel example {
  array a[30] : s32;
  array b[30][20] : s32;
  array c[20] : s32;
  array d[2][30] : s32;
  array e[2][20][30] : s32;
  for i in 0..2 {
    for j in 0..20 {
      for k in 0..30 {
        d[i][k] = a[k] * b[k][j];
        e[i][j][k] = c[j] * d[i][k];
      }
    }
  }
}
)";

// FIR: y[i] = sum_j c[j] * x[i+j]; 1024 outputs, 32 taps, 8-bit samples.
constexpr const char* kFirSrc = R"(
kernel fir {
  array x[1055] : u8;
  array c[32] : u8;
  array y[1024] : s32;
  for i in 0..1024 {
    for j in 0..32 {
      y[i] += c[j] * x[i + j];
    }
  }
}
)";

// Dec-FIR: y[i] = sum_j c[j] * x[4i+j]; 256 outputs, 64 taps, decimation 4.
constexpr const char* kDecFirSrc = R"(
kernel dec_fir {
  array x[1084] : u8;
  array c[64] : u8;
  array y[256] : s32;
  for i in 0..256 {
    for j in 0..64 {
      y[i] += c[j] * x[4*i + j];
    }
  }
}
)";

// MAT: c = a * b, 16x16 matrices.
constexpr const char* kMatSrc = R"(
kernel mat {
  array a[16][16] : s16;
  array b[16][16] : s16;
  array c[16][16] : s32;
  for i in 0..16 {
    for j in 0..16 {
      for k in 0..16 {
        c[i][j] += a[i][k] * b[k][j];
      }
    }
  }
}
)";

// IMI: 8 intermediate frames between two 32x32 grey-scale images,
// out = (im1*(8-t) + im2*t) / 8 with the loop counter t as a datapath input.
constexpr const char* kImiSrc = R"(
kernel imi {
  array im1[32][32] : u8;
  array im2[32][32] : u8;
  array out[8][32][32] : u8;
  for t in 0..8 {
    for i in 0..32 {
      for j in 0..32 {
        out[t][i][j] = (im1[i][j] * (8 - t) + im2[i][j] * t) >> 3;
      }
    }
  }
}
)";

// PAT: match count of a 32-char pattern at each of 993 text positions.
constexpr const char* kPatSrc = R"(
kernel pat {
  array txt[1024] : u8;
  array p[32] : u8;
  array m[993] : s16;
  for i in 0..993 {
    for j in 0..32 {
      m[i] += (txt[i + j] == p[j]);
    }
  }
}
)";

// BIC: binary image correlation, 8x8 template over every 57x57 placement in
// a 64x64 image (match = equality count).
constexpr const char* kBicSrc = R"(
kernel bic {
  array img[64][64] : u8;
  array tpl[8][8] : u8;
  array corr[57][57] : s16;
  for r in 0..57 {
    for s in 0..57 {
      for i in 0..8 {
        for j in 0..8 {
          corr[r][s] += (tpl[i][j] == img[r + i][s + j]);
        }
      }
    }
  }
}
)";

// SOBEL-style 3x3 convolution: out[i][j] = sum_{u,v} g[u][v] * in[i+u][j+v].
constexpr const char* kConv2dSrc = R"(
kernel conv2d {
  array in[66][66] : u8;
  array g[3][3] : s8;
  array out[64][64] : s32;
  for i in 0..64 {
    for j in 0..64 {
      for u in 0..3 {
        for v in 0..3 {
          out[i][j] += g[u][v] * in[i + u][j + v];
        }
      }
    }
  }
}
)";

// Matrix-vector product: y[i] = sum_j a[i][j] * x[j].
constexpr const char* kMatvecSrc = R"(
kernel matvec {
  array a[32][32] : s16;
  array x[32] : s16;
  array y[32] : s32;
  for i in 0..32 {
    for j in 0..32 {
      y[i] += a[i][j] * x[j];
    }
  }
}
)";

}  // namespace

Kernel conv2d() { return parse_kernel(kConv2dSrc); }
Kernel matvec() { return parse_kernel(kMatvecSrc); }

std::vector<NamedKernel> all_kernels() {
  std::vector<NamedKernel> all = table1_kernels();
  all.push_back({"CONV2D", "3x3 convolution over a 64x64 image", conv2d()});
  all.push_back({"MATVEC", "32x32 matrix-vector product", matvec()});
  return all;
}

std::vector<NamedKernel> builtin_kernels() {
  std::vector<NamedKernel> all;
  all.push_back({"example", "Figure 1 worked example", paper_example()});
  for (NamedKernel& nk : all_kernels()) all.push_back(std::move(nk));
  return all;
}

std::optional<NamedKernel> find_builtin(std::string_view name) {
  std::string key = spelling_key(name);
  if (key == "mmt") key = "mat";  // matrix-matrix multiply, both spellings
  for (NamedKernel& nk : builtin_kernels()) {
    if (spelling_key(nk.name) == key) return std::move(nk);
  }
  return std::nullopt;
}

Kernel paper_example() { return parse_kernel(kExampleSrc); }
Kernel fir() { return parse_kernel(kFirSrc); }
Kernel dec_fir() { return parse_kernel(kDecFirSrc); }
Kernel mat() { return parse_kernel(kMatSrc); }
Kernel imi() { return parse_kernel(kImiSrc); }
Kernel pat() { return parse_kernel(kPatSrc); }
Kernel bic() { return parse_kernel(kBicSrc); }

std::vector<NamedKernel> table1_kernels() {
  std::vector<NamedKernel> all;
  all.push_back({"FIR", "1024-sample convolution, 32 taps", fir()});
  all.push_back({"Dec-FIR", "decimating convolution, 64 taps, factor 4", dec_fir()});
  all.push_back({"IMI", "image interpolation, 2x 32x32 -> 8 frames", imi()});
  all.push_back({"MAT", "16x16x16 matrix multiply", mat()});
  all.push_back({"PAT", "32-char pattern over 1024-char text", pat()});
  all.push_back({"BIC", "8x8 binary template correlation over 64x64", bic()});
  return all;
}

std::string kernel_source(const std::string& name) {
  if (name == "example") return kExampleSrc;
  if (name == "conv2d") return kConv2dSrc;
  if (name == "matvec") return kMatvecSrc;
  if (name == "fir") return kFirSrc;
  if (name == "dec_fir") return kDecFirSrc;
  if (name == "mat") return kMatSrc;
  if (name == "imi") return kImiSrc;
  if (name == "pat") return kPatSrc;
  if (name == "bic") return kBicSrc;
  fail(cat("unknown kernel name: ", name));
}

}  // namespace srra::kernels
