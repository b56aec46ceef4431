// Golden-report oracle for the expression interner.
//
// Hash-consing is only admissible if it is *invisible*. The goldens
// under tests/testing/golden/ were frozen while the uninterned heap
// path still ran beside the interner, and both produced those exact
// bytes: the full analysis report (findings, def-pair propagation
// counts, path counts — everything except wall-clock timings and
// per-run metrics) must match them at any thread count, cold or warm
// cache, in either alias mode. Same bar as tests/cache_differential_test
// applies to the summary cache: the codec bytes a summary encodes to —
// and therefore the cache's content-addressed fingerprints — must match
// the golden digests too.
#include <gtest/gtest.h>

#include "tests/testing/differential.h"

namespace dtaint {
namespace {

TEST(InternGolden, ReportsAndSummariesMatchGoldens) {
  testing_util::ExpectCorpusMatchesGoldens("intern",
                                           testing_util::kInternCorpus);
}

}  // namespace
}  // namespace dtaint
