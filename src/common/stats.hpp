/**
 * @file
 * Statistics primitives used by the instrumented subsystems.
 *
 * Each subsystem keeps a plain struct of named counters (cheap, typed) and
 * uses Histogram for latency-style distributions. The bench harnesses pull
 * these structs and format them with TablePrinter.
 */

#ifndef PLUS_COMMON_STATS_HPP_
#define PLUS_COMMON_STATS_HPP_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "common/panic.hpp"

namespace plus {

/**
 * Streaming distribution with exact summaries. count, sum, min and max
 * are accumulated sample by sample; instead of the samples themselves
 * it keeps a count per distinct value, so its size follows the spread
 * of the values, not the length of the run. Small non-negative integers
 * (every cycle latency the simulator records) count in a dense array
 * grown on demand; any other value counts in an ordered map. Percentiles
 * are exact: a cumulative walk over both in value order with the
 * nearest-rank rule.
 */
class Histogram
{
  public:
    /** Values in [0, kDenseLimit) with no fraction count densely. */
    static constexpr std::size_t kDenseLimit = std::size_t{1} << 16;

    void
    record(double value)
    {
        ++count_;
        sum_ += value;
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
        // The range test is false for NaN, and the sign test sends -0.0
        // to the map so that the value returned is the one recorded.
        if (value >= 0.0 && value < static_cast<double>(kDenseLimit) &&
            !std::signbit(value)) {
            const auto index = static_cast<std::size_t>(value);
            if (static_cast<double>(index) == value) {
                if (index >= dense_.size()) {
                    dense_.resize(index + 1);
                }
                ++dense_[index];
                return;
            }
        }
        PLUS_ASSERT(!std::isnan(value), "NaN recorded in a histogram");
        ++sparse_[value];
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count() ? min_ : 0.0; }
    double max() const { return count() ? max_ : 0.0; }
    double mean() const { return count() ? sum_ / count() : 0.0; }

    /** Exact percentile by nearest-rank; p in [0, 100]. */
    double
    percentile(double p) const
    {
        double value = 0.0;
        percentiles(&p, &value, 1);
        return value;
    }

    /**
     * percentile() of each of @p n ascending ranks @p ps into @p out, in
     * one walk over the distinct values.
     */
    void
    percentiles(const double* ps, double* out, std::size_t n) const
    {
        for (std::size_t i = 0; i < n; ++i) {
            PLUS_ASSERT(ps[i] >= 0.0 && ps[i] <= 100.0,
                        "percentile out of range");
            PLUS_ASSERT(i == 0 || ps[i] >= ps[i - 1],
                        "percentiles not ascending");
            out[i] = 0.0;
        }
        if (count_ == 0) {
            return;
        }
        // Rank r falls on the first value whose cumulative count
        // exceeds r.
        std::size_t done = 0;
        std::uint64_t upTo = 0;
        auto visit = [&](double value, std::uint64_t count) {
            upTo += count;
            while (done < n && rankOf(ps[done]) < upTo) {
                out[done++] = value;
            }
            return done < n;
        };
        auto sparse = sparse_.begin();
        for (std::size_t i = 0; i < dense_.size(); ++i) {
            if (dense_[i] == 0) {
                continue;
            }
            const auto value = static_cast<double>(i);
            for (; sparse != sparse_.end() && sparse->first < value;
                 ++sparse) {
                if (!visit(sparse->first, sparse->second)) {
                    return;
                }
            }
            if (!visit(value, dense_[i])) {
                return;
            }
        }
        for (; sparse != sparse_.end(); ++sparse) {
            if (!visit(sparse->first, sparse->second)) {
                return;
            }
        }
    }

    double median() const { return percentile(50.0); }

    void
    clear()
    {
        dense_.clear();
        sparse_.clear();
        count_ = 0;
        sum_ = 0.0;
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
    }

    /**
     * Merge another histogram's samples into this one. The sums add as
     * totals, which equals recording each sample again whenever the
     * samples are integers (all the simulator records).
     */
    void
    merge(const Histogram& other)
    {
        if (other.dense_.size() > dense_.size()) {
            dense_.resize(other.dense_.size());
        }
        for (std::size_t i = 0; i < other.dense_.size(); ++i) {
            dense_[i] += other.dense_[i];
        }
        for (const auto& [value, count] : other.sparse_) {
            sparse_[value] += count;
        }
        count_ += other.count_;
        sum_ += other.sum_;
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }

  private:
    /** Nearest rank of @p p among the sorted samples. @pre count_ > 0. */
    std::uint64_t
    rankOf(double p) const
    {
        const auto rank = static_cast<std::uint64_t>(
            p / 100.0 * static_cast<double>(count_ - 1) + 0.5);
        return std::min(rank, count_ - 1);
    }

    /** dense_[v] = samples equal to v. */
    std::vector<std::uint64_t> dense_;
    /** Samples outside the dense range, by value. */
    std::map<double, std::uint64_t> sparse_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/** Ratio helper that renders 0/0 as 0 instead of NaN. */
inline double
safeRatio(double numerator, double denominator)
{
    return denominator == 0.0 ? 0.0 : numerator / denominator;
}

} // namespace plus

#endif // PLUS_COMMON_STATS_HPP_
