// The paper's benchmark kernels (Table 1) and the running example
// (Figure 1), with the calibration parameters documented in DESIGN.md §4.
// All kernels are written in the kernel DSL and parsed at construction, so
// the textual frontend is exercised on every use.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ir/kernel.h"

namespace srra::kernels {

/// The Figure 1 running example:
///   for i { for j { for k {
///     d[i][k] = a[k] * b[k][j];
///     e[i][j][k] = c[j] * d[i][k]; } } }
/// Bounds: i in 0..2 (a steady outer iteration plus the peeled first one),
/// j in 0..20, k in 0..30 — the bounds that reproduce the paper's
/// beta = {a:30, b:600, c:20, d:30, e:1} and Tmem = 1800/1560/1184.
Kernel paper_example();

/// FIR: 1024-sample convolution with 32 coefficients (8-bit data).
Kernel fir();

/// Decimation FIR: 64 coefficients, decimation factor 4.
Kernel dec_fir();

/// MAT: 16x16x16 matrix-matrix multiply.
Kernel mat();

/// IMI: interpolation of two 32x32 grey-scale images for 8 intermediate
/// frames.
Kernel imi();

/// PAT: occurrences of a 32-character pattern in a 1024-character string.
Kernel pat();

/// BIC: binary image correlation of an 8x8 template over a 64x64 image.
Kernel bic();

/// A named kernel plus its one-line description (for benches and examples).
struct NamedKernel {
  std::string name;
  std::string description;
  Kernel kernel;
};

/// The six Table 1 kernels, in the paper's order.
std::vector<NamedKernel> table1_kernels();

/// SOBEL-style 3x3 convolution over a 64x64 image (extra workload from the
/// paper's motivating domain; not part of Table 1).
Kernel conv2d();

/// Matrix-vector product, 32x32 (extra workload; not part of Table 1).
Kernel matvec();

/// Table-1 kernels plus the extra workloads (sweeps and examples).
std::vector<NamedKernel> all_kernels();

/// The Figure 1 example followed by all_kernels(): every kernel the CLI and
/// the service accept by name.
std::vector<NamedKernel> builtin_kernels();

/// The builtin kernel `name` spells, or nullopt. Spellings are
/// case-insensitive, '-' and '_' are interchangeable, and "mmt" is an alias
/// of "mat". The result carries the display name ("example", "FIR",
/// "Dec-FIR", ...), which the service hashes into its cache keys.
std::optional<NamedKernel> find_builtin(std::string_view name);

/// DSL source text of a kernel by name ("example", "fir", "dec_fir", "mat",
/// "imi", "pat", "bic"); throws for unknown names. Useful for the parser
/// tests and the custom-kernel example.
std::string kernel_source(const std::string& name);

}  // namespace srra::kernels
