// Kernel catalogue tests: every shipped kernel parses, validates, analyzes
// and survives a machine-vs-interpreter verification; the extra workloads
// (conv2d, matvec) have the expected reuse structure.
#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "ir/parser.h"
#include "kernels/kernels.h"
#include "sim/machine.h"

namespace srra {
namespace {

TEST(Kernels, Table1ListHasSixInPaperOrder) {
  const auto list = kernels::table1_kernels();
  ASSERT_EQ(list.size(), 6u);
  EXPECT_EQ(list[0].name, "FIR");
  EXPECT_EQ(list[1].name, "Dec-FIR");
  EXPECT_EQ(list[2].name, "IMI");
  EXPECT_EQ(list[3].name, "MAT");
  EXPECT_EQ(list[4].name, "PAT");
  EXPECT_EQ(list[5].name, "BIC");
}

TEST(Kernels, AllKernelsAddsExtras) {
  const auto list = kernels::all_kernels();
  ASSERT_EQ(list.size(), 8u);
  EXPECT_EQ(list[6].name, "CONV2D");
  EXPECT_EQ(list[7].name, "MATVEC");
}

TEST(Kernels, SourcesParseAndValidate) {
  for (const char* name : {"example", "fir", "dec_fir", "mat", "imi", "pat", "bic",
                           "conv2d", "matvec"}) {
    const Kernel k = parse_kernel(kernels::kernel_source(name));
    EXPECT_NO_THROW(k.validate()) << name;
    EXPECT_GT(k.iteration_count(), 0) << name;
  }
  EXPECT_THROW(kernels::kernel_source("nope"), Error);
}

TEST(Kernels, Conv2dReuseStructure) {
  const RefModel m(kernels::conv2d());
  // g[u][v] is invariant in i and j: full replacement needs the 9 taps.
  EXPECT_EQ(m.beta_full(group_named(m.groups(), "g[u][v]").id), 9);
  // The accumulator needs one register (innermost carrying level).
  EXPECT_EQ(m.beta_full(group_named(m.groups(), "out[i][j]").id), 1);
  // The image window slides in two dimensions; its column window carries at
  // the j loop.
  const ReuseInfo& rin =
      m.reuse()[static_cast<std::size_t>(group_named(m.groups(), "in[i + u][j + v]").id)];
  ASSERT_TRUE(rin.has_reuse());
  EXPECT_EQ(rin.outermost_level(), 0);
}

TEST(Kernels, MatvecReuseStructure) {
  const RefModel m(kernels::matvec());
  EXPECT_EQ(m.beta_full(group_named(m.groups(), "x[j]").id), 32);
  EXPECT_EQ(m.beta_full(group_named(m.groups(), "y[i]").id), 1);
  EXPECT_FALSE(
      m.reuse()[static_cast<std::size_t>(group_named(m.groups(), "a[i][j]").id)].has_reuse());
}

TEST(Kernels, ExtrasVerifyUnderCpa) {
  for (const char* name : {"conv2d", "matvec"}) {
    const RefModel m(parse_kernel(kernels::kernel_source(name)));
    const Allocation a = allocate(Algorithm::kCpaRa, m, 64);
    EXPECT_TRUE(verify_allocation(m, a, 77).ok) << name;
  }
}

TEST(Kernels, DescriptionsNonEmpty) {
  for (const auto& nk : kernels::builtin_kernels()) {
    EXPECT_FALSE(nk.description.empty()) << nk.name;
  }
}

// The one spelling rule the CLI and the service share: case-folded, '-' and
// '_' interchangeable, "mmt" an alias of "mat". The display name comes back
// unchanged, because the service hashes it into its cache keys.
TEST(Kernels, FindBuiltinFoldsSpellingsToTheDisplayName) {
  const std::vector<std::pair<const char*, const char*>> spellings = {
      {"example", "example"}, {"EXAMPLE", "example"}, {"fir", "FIR"},
      {"Dec-FIR", "Dec-FIR"}, {"dec_fir", "Dec-FIR"}, {"DEC-fir", "Dec-FIR"},
      {"mat", "MAT"},         {"mmt", "MAT"},         {"MMT", "MAT"},
      {"conv2d", "CONV2D"},   {"matvec", "MATVEC"},
  };
  for (const auto& [spelling, display] : spellings) {
    const std::optional<kernels::NamedKernel> nk = kernels::find_builtin(spelling);
    ASSERT_TRUE(nk.has_value()) << spelling;
    EXPECT_EQ(nk->name, display) << spelling;
  }
  EXPECT_EQ(structural_hash(kernels::find_builtin("mmt")->kernel),
            structural_hash(kernels::mat()));
  EXPECT_EQ(structural_hash(kernels::find_builtin("Example")->kernel),
            structural_hash(kernels::paper_example()));
  for (const char* unknown : {"", "paper", "all", "fir2", "mm_t", "m-a-t"}) {
    EXPECT_FALSE(kernels::find_builtin(unknown).has_value()) << unknown;
  }
  ASSERT_EQ(kernels::builtin_kernels().size(), 9u);
  EXPECT_EQ(kernels::builtin_kernels().front().name, "example");
}

}  // namespace
}  // namespace srra
