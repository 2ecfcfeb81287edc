// Fixed-bucket log2-linear latency histogram (HDR-style): cycle values are
// bucketed into octaves, each octave split into kSubBuckets linear
// sub-buckets, so relative bucket width — and therefore the worst-case
// percentile error — is bounded by 1/kSubBuckets (12.5%) everywhere while the
// whole u64 range fits in a few hundred counters. Deterministic, mergeable
// (merge == histogram of the concatenated streams), and O(1) per sample;
// this is what the metrics document's p50/p90/p99/p99.9 request-latency
// fields are computed from.
#pragma once

#include <array>
#include <cstddef>
#include <string>

#include "common/types.hpp"

namespace gilfree::obs {

class LatencyHistogram {
 public:
  /// Linear sub-buckets per octave. 8 keeps every bucket within 12.5% of its
  /// lower edge, which is far below run-to-run latency noise.
  static constexpr u32 kSubBuckets = 8;
  static constexpr u32 kSubBits = 3;  ///< log2(kSubBuckets)
  /// Buckets 0..7 are exact (width 1); octave g >= 1 contributes 8 buckets
  /// covering [8 << (g-1), 16 << (g-1)). 61 octaves cover all of u64.
  static constexpr std::size_t kNumBuckets = kSubBuckets + 61 * kSubBuckets;

  /// Bucket index of a value; total order preserved between buckets.
  static u32 bucket_of(u64 v);
  /// Inclusive lower edge of a bucket.
  static u64 bucket_lo(u32 i);
  /// Exclusive upper edge of a bucket.
  static u64 bucket_hi(u32 i);

  void add(u64 v, u64 weight = 1);
  void merge(const LatencyHistogram& o);

  u64 total() const { return total_; }
  u64 sum() const { return sum_; }  ///< Exact sum (not bucketed).
  u64 max_value() const { return max_; }
  u64 min_value() const { return total_ ? min_ : 0; }
  double mean() const {
    return total_ ? static_cast<double>(sum_) / static_cast<double>(total_)
                  : 0.0;
  }
  u64 bucket_count(u32 i) const { return counts_.at(i); }

  /// Percentile estimate, p in [0, 100]. Returns the highest value of the
  /// bucket containing the ceil(p/100 * total)-th smallest sample, so the
  /// exact sorted-sample percentile always lies inside the reported bucket
  /// (the property tests/test_latency_hist.cpp locks down). 0 when empty.
  u64 percentile(double p) const;

  /// Sparse "bucket-lo:count" encoding, ascending; "" when empty. Used for
  /// the metrics document so merged documents stay byte-deterministic.
  std::string to_sparse_string() const;

  /// Exact wire encoding for cross-process merging (httpsim cluster
  /// protocol): "total sum min max lo:count,lo:count,...". Unlike the sparse
  /// string alone this round-trips the exact sum/extrema, so a deserialized
  /// histogram merges and reports identically to the original.
  std::string serialize() const;
  /// Inverse of serialize(); throws std::invalid_argument on malformed
  /// input (counts not summing to total, non-bucket-edge keys, ...).
  static LatencyHistogram deserialize(const std::string& s);

  bool operator==(const LatencyHistogram&) const = default;

 private:
  std::array<u64, kNumBuckets> counts_{};
  u64 total_ = 0;
  u64 sum_ = 0;
  u64 min_ = 0;
  u64 max_ = 0;
};

}  // namespace gilfree::obs
