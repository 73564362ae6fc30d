/**
 * @file
 * The determinism contract, as code.
 *
 * Both engine backends (the timing wheel and the heap oracle) must
 * produce byte-identical observable output — events, packets, telemetry,
 * checker traces, bench text — and so must two runs of one backend.
 * `scripts/pluslint.py` enforces the contract statically (rules R1–R5,
 * see docs/STATIC_ANALYSIS.md); this header
 * provides the two annotation macros the linter keys on and the
 * `sortedView()` adapter that turns an unordered container into a
 * deterministically ordered range.
 */

#ifndef PLUS_COMMON_DETERMINISM_HPP_
#define PLUS_COMMON_DETERMINISM_HPP_

#include <algorithm>
#include <type_traits>
#include <vector>

namespace plus {

/**
 * Marks a translation unit as part of the deterministic simulation core.
 * Purely declarative — pluslint treats the annotation as documentation
 * that the file opted into strict checking (which is the default for all
 * of src/ anyway). Place at namespace scope near the top of the file.
 */
#define PLUS_DETERMINISTIC                                                   \
    static_assert(true, "deterministic simulation core")

/**
 * Marks a translation unit as host-facing: it may read wall-clock time or
 * host entropy (rule R2 is waived for the whole file). Use for bench
 * timing, logging front-ends, and other code whose output never feeds the
 * simulation. The reason string is mandatory and shows up in the lint
 * report when the waiver is exercised.
 */
#define PLUS_HOST_ONLY(reason)                                               \
    static_assert(true, "host-only file: " reason)

namespace detail {

template <typename T>
struct IsPairLike : std::false_type {};
template <typename A, typename B>
struct IsPairLike<std::pair<A, B>> : std::true_type {};

template <typename V>
const auto&
sortKeyOf(const V& v)
{
    if constexpr (IsPairLike<std::remove_cv_t<V>>::value) {
        return v.first; // map-like: order by key
    } else {
        return v; // set-like: order by element
    }
}

} // namespace detail

/**
 * A deterministically ordered, read-only view over an unordered
 * container: the elements sorted by key (maps) or value (sets).
 *
 * This is the sanctioned way to iterate an `unordered_map`/`unordered_set`
 * when the results reach observable state (rule R1):
 *
 *     for (const auto& [vpn, count] : sortedView(counters.counts())) ...
 *
 * The view holds pointers into the source container; it is invalidated by
 * any rehash, insert, or erase, exactly like an iterator would be.
 */
template <typename Container>
class SortedView {
  public:
    using value_type = typename Container::value_type;

    explicit SortedView(const Container& c)
    {
        items_.reserve(c.size());
        // pluslint: allow(R1) -- this loop is what makes the order
        // deterministic: every element is collected, then sorted by key.
        for (const auto& element : c) {
            items_.push_back(&element);
        }
        std::sort(items_.begin(), items_.end(),
                  [](const value_type* a, const value_type* b) {
                      return detail::sortKeyOf(*a) < detail::sortKeyOf(*b);
                  });
    }

    class iterator {
      public:
        explicit iterator(const value_type* const* p) : p_(p) {}
        const value_type& operator*() const { return **p_; }
        const value_type* operator->() const { return *p_; }
        iterator& operator++()
        {
            ++p_;
            return *this;
        }
        bool operator!=(const iterator& o) const { return p_ != o.p_; }
        bool operator==(const iterator& o) const { return p_ == o.p_; }

      private:
        const value_type* const* p_;
    };

    iterator begin() const { return iterator(items_.data()); }
    iterator end() const { return iterator(items_.data() + items_.size()); }
    std::size_t size() const { return items_.size(); }
    bool empty() const { return items_.empty(); }

  private:
    std::vector<const value_type*> items_;
};

template <typename Container>
SortedView<Container>
sortedView(const Container& c)
{
    return SortedView<Container>(c);
}

} // namespace plus

#endif // PLUS_COMMON_DETERMINISM_HPP_
