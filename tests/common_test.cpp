// Unit tests for the common runtime: Status, Rng, CSV parsing, CRC-32.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/service_options.h"
#include "api/stream_health.h"
#include "common/cpu_features.h"
#include "common/crc32.h"
#include "common/csv.h"
#include "common/monotonic_clock.h"
#include "common/random.h"
#include "common/status.h"

namespace sns {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("rank must be positive");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: rank must be positive");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto inner = []() { return Status::NotFound("x"); };
  auto outer = [&]() -> Status {
    SNS_RETURN_IF_ERROR(inner());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::OutOfRange("too big");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kOutOfRange);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differences = 0;
  for (int i = 0; i < 16; ++i) differences += (a.Next() != b.Next());
  EXPECT_GT(differences, 0);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(-2, 3));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(RngTest, NextUint64RespectsBound) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.NextUint64(17), 17u);
}

TEST(RngTest, NormalHasApproximateMoments) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, PoissonMeanMatchesSmallAndLarge) {
  Rng rng(17);
  for (double mean : {0.5, 4.0, 80.0}) {
    const int n = 20000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Poisson(mean));
    EXPECT_NEAR(sum / n, mean, 0.05 * mean + 0.05) << "mean=" << mean;
  }
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(19);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(23);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) counts[rng.Categorical(weights)]++;
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(29);
  for (int trial = 0; trial < 50; ++trial) {
    auto sample = rng.SampleWithoutReplacement(100, 13);
    std::set<size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 13u);
    for (size_t idx : sample) EXPECT_LT(idx, 100u);
  }
}

TEST(RngTest, SampleWithoutReplacementWholePopulation) {
  Rng rng(31);
  auto sample = rng.SampleWithoutReplacement(5, 9);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(RngTest, SampleWithoutReplacementIsApproximatelyUniform) {
  Rng rng(37);
  std::vector<int> counts(10, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    for (size_t idx : rng.SampleWithoutReplacement(10, 3)) counts[idx]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.3, 0.02);
  }
}

TEST(CsvTest, SplitLineBasicAndEmptyFields) {
  auto fields = SplitLine("a,b,,d", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "");
  EXPECT_EQ(fields[3], "d");
}

TEST(CsvTest, ParseInt64) {
  EXPECT_EQ(ParseInt64("-42").value(), -42);
  EXPECT_FALSE(ParseInt64("4x").ok());
  EXPECT_FALSE(ParseInt64("").ok());
}

TEST(CsvTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(ParseDouble("2.5").value(), 2.5);
  EXPECT_FALSE(ParseDouble("abc").ok());
}

TEST(CsvTest, RoundTripFile) {
  const std::string path = ::testing::TempDir() + "/sns_csv_test.csv";
  std::remove(path.c_str());
  ASSERT_TRUE(WriteDelimitedFile(path, ',', {{"1", "2", "3.5"}, {"4", "5", "6"}})
                  .ok());
  auto rows = ReadDelimitedFile(path, ',', /*skip_header=*/false);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 2u);
  EXPECT_EQ(rows.value()[0][2], "3.5");
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileIsIOError) {
  auto rows = ReadDelimitedFile("/nonexistent/path.csv", ',', false);
  EXPECT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kIOError);
}

TEST(MonotonicClockTest, ReadsNeverDecrease) {
  int64_t previous = MonotonicNanos();
  for (int i = 0; i < 1000; ++i) {
    const int64_t now = MonotonicNanos();
    EXPECT_GE(now, previous);
    previous = now;
  }
}

// --- Status taxonomy (self-healing additions) ------------------------------

TEST(StatusTest, DeadlineExceededAndUnavailableFactories) {
  const Status deadline = Status::DeadlineExceeded("push timed out");
  EXPECT_FALSE(deadline.ok());
  EXPECT_EQ(deadline.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(deadline.ToString(), "DeadlineExceeded: push timed out");

  const Status unavailable = Status::Unavailable("quarantined");
  EXPECT_EQ(unavailable.code(), StatusCode::kUnavailable);
  EXPECT_EQ(unavailable.ToString(), "Unavailable: quarantined");
}

TEST(StatusTest, StatusCodeNameCoversEveryCode) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIOError), "IOError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDataLoss), "DataLoss");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded),
               "DeadlineExceeded");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnavailable), "Unavailable");
}

TEST(StatusTest, IsRetryableSeparatesTransientFromPermanent) {
  // Transient: the same call can succeed later.
  EXPECT_TRUE(IsRetryable(StatusCode::kUnavailable));
  EXPECT_TRUE(IsRetryable(StatusCode::kResourceExhausted));
  EXPECT_TRUE(IsRetryable(StatusCode::kDeadlineExceeded));
  EXPECT_TRUE(IsRetryable(StatusCode::kIOError));
  // Permanent verdicts.
  EXPECT_FALSE(IsRetryable(StatusCode::kOk));
  EXPECT_FALSE(IsRetryable(StatusCode::kInvalidArgument));
  EXPECT_FALSE(IsRetryable(StatusCode::kNotFound));
  EXPECT_FALSE(IsRetryable(StatusCode::kOutOfRange));
  EXPECT_FALSE(IsRetryable(StatusCode::kFailedPrecondition));
  EXPECT_FALSE(IsRetryable(StatusCode::kInternal));
  EXPECT_FALSE(IsRetryable(StatusCode::kDataLoss));
}

TEST(StatusTest, TaxonomyIsExhaustivePerCode) {
  // One switch over every enumerator — no default — so adding a StatusCode
  // without extending this test is a -Wswitch build warning here and an
  // SNS_CHECK abort in StatusCodeName/IsRetryable. For each code the row
  // pins: a factory producing it, its display name, and its retryability.
  for (int raw = 0; raw < kStatusCodeCount; ++raw) {
    const StatusCode code = static_cast<StatusCode>(raw);
    Status made;
    const char* expected_name = nullptr;
    bool expected_retryable = false;
    switch (code) {
      case StatusCode::kOk:
        made = Status::OK();
        expected_name = "OK";
        expected_retryable = false;
        break;
      case StatusCode::kInvalidArgument:
        made = Status::InvalidArgument("m");
        expected_name = "InvalidArgument";
        expected_retryable = false;
        break;
      case StatusCode::kNotFound:
        made = Status::NotFound("m");
        expected_name = "NotFound";
        expected_retryable = false;
        break;
      case StatusCode::kOutOfRange:
        made = Status::OutOfRange("m");
        expected_name = "OutOfRange";
        expected_retryable = false;
        break;
      case StatusCode::kFailedPrecondition:
        made = Status::FailedPrecondition("m");
        expected_name = "FailedPrecondition";
        expected_retryable = false;
        break;
      case StatusCode::kResourceExhausted:
        made = Status::ResourceExhausted("m");
        expected_name = "ResourceExhausted";
        expected_retryable = true;
        break;
      case StatusCode::kInternal:
        made = Status::Internal("m");
        expected_name = "Internal";
        expected_retryable = false;
        break;
      case StatusCode::kIOError:
        made = Status::IOError("m");
        expected_name = "IOError";
        expected_retryable = true;
        break;
      case StatusCode::kDataLoss:
        made = Status::DataLoss("m");
        expected_name = "DataLoss";
        expected_retryable = false;
        break;
      case StatusCode::kDeadlineExceeded:
        made = Status::DeadlineExceeded("m");
        expected_name = "DeadlineExceeded";
        expected_retryable = true;
        break;
      case StatusCode::kUnavailable:
        made = Status::Unavailable("m");
        expected_name = "Unavailable";
        expected_retryable = true;
        break;
    }
    ASSERT_NE(expected_name, nullptr) << "code " << raw << " has no row";
    EXPECT_EQ(made.code(), code) << expected_name;
    EXPECT_STREQ(StatusCodeName(code), expected_name);
    EXPECT_EQ(IsRetryable(code), expected_retryable) << expected_name;
    EXPECT_EQ(made.ok(), code == StatusCode::kOk);
  }
}

TEST(StreamHealthTest, NamesCoverEveryState) {
  EXPECT_STREQ(StreamHealthName(StreamHealth::kHealthy), "healthy");
  EXPECT_STREQ(StreamHealthName(StreamHealth::kQuarantined), "quarantined");
  EXPECT_STREQ(StreamHealthName(StreamHealth::kRecovering), "recovering");
  EXPECT_STREQ(StreamHealthName(StreamHealth::kFailed), "failed");
}

TEST(StreamHealthTest, BackoffScheduleIsBoundedJitteredAndDeterministic) {
  RecoveryPolicy policy;
  policy.initial_backoff_ms = 10;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_ms = 50;
  policy.jitter_seed = 42;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    const int64_t backoff = policy.BackoffMs(attempt);
    // Jitter scales the exponential envelope by [0.5, 1.0).
    const double envelope =
        std::min<double>(static_cast<double>(policy.max_backoff_ms),
                         10.0 * std::pow(2.0, attempt - 1));
    EXPECT_GE(backoff, static_cast<int64_t>(envelope * 0.5) - 1);
    EXPECT_LE(backoff, static_cast<int64_t>(envelope));
    EXPECT_EQ(backoff, policy.BackoffMs(attempt));  // Deterministic.
  }
  // Different seeds give different schedules (the fleet-desync property).
  RecoveryPolicy other = policy;
  other.jitter_seed = 43;
  bool any_difference = false;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    any_difference |= other.BackoffMs(attempt) != policy.BackoffMs(attempt);
  }
  EXPECT_TRUE(any_difference);
}

// --- CRC-32 ---------------------------------------------------------------

TEST(Crc32Test, MatchesTheStandardCheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(Crc32(check.data(), 0), 0u);
}

TEST(Crc32Test, ContinuationEqualsTheConcatenation) {
  Rng rng(0xC4C32);
  std::string bytes(3000, '\0');
  for (char& b : bytes) b = static_cast<char>(rng.UniformInt(0, 255));
  for (const size_t split : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                             size_t{100}, size_t{1500}, size_t{3000}}) {
    const uint32_t a = Crc32(bytes.data(), split);
    EXPECT_EQ(Crc32(bytes.data() + split, bytes.size() - split, a),
              Crc32(bytes.data(), bytes.size()))
        << "split at " << split;
  }
}

TEST(Crc32Test, FoldEqualsTheTableLoopAtEveryLengthAndOffset) {
  // The PCLMULQDQ fold runs at the intrinsic tiers, the table loop at the
  // generic tier; pin each in turn over every length and start offset, with
  // random bytes and random continuation seeds.
  const bool fold = DetectCpuFeatures().pclmul &&
                    KernelTierSupported(KernelTier::kAvx2);
  if (!fold) GTEST_SKIP() << "host has no PCLMULQDQ intrinsic tier";
  Rng rng(0xF01D);
  std::vector<unsigned char> bytes(1100 + 16);
  for (unsigned char& b : bytes) {
    b = static_cast<unsigned char>(rng.UniformInt(0, 255));
  }
  std::vector<uint32_t> seeds(1101 * 16);
  for (uint32_t& seed : seeds) seed = static_cast<uint32_t>(rng.Next());
  auto all = [&]() {
    std::vector<uint32_t> out;
    out.reserve(seeds.size());
    for (size_t length = 0; length <= 1100; ++length) {
      for (size_t offset = 0; offset < 16; ++offset) {
        out.push_back(Crc32(bytes.data() + offset, length,
                            seeds[length * 16 + offset]));
      }
    }
    return out;
  };
  internal::RefreshKernelTierForTest(KernelTier::kGeneric);
  const std::vector<uint32_t> table = all();
  internal::RefreshKernelTierForTest(KernelTier::kAvx2);
  const std::vector<uint32_t> folded = all();
  internal::RefreshKernelTierForTest();
  ASSERT_EQ(table.size(), folded.size());
  for (size_t i = 0; i < table.size(); ++i) {
    ASSERT_EQ(table[i], folded[i])
        << "length " << i / 16 << ", offset " << i % 16;
  }
}

// Name functions promise to SNS_CHECK-fail on values outside their enums
// instead of returning garbage; pin the abort with death tests.
using NameFunctionDeathTest = ::testing::Test;

TEST(NameFunctionDeathTest, StatusCodeNameAbortsOutsideTheEnum) {
  EXPECT_DEATH(StatusCodeName(static_cast<StatusCode>(255)), "StatusCodeName");
}

TEST(NameFunctionDeathTest, StreamHealthNameAbortsOutsideTheEnum) {
  EXPECT_DEATH(StreamHealthName(static_cast<StreamHealth>(255)),
               "StreamHealthName");
}

TEST(NameFunctionDeathTest, BackpressurePolicyNameAbortsOutsideTheEnum) {
  EXPECT_DEATH(BackpressurePolicyName(static_cast<BackpressurePolicy>(255)),
               "BackpressurePolicyName");
}

}  // namespace
}  // namespace sns
