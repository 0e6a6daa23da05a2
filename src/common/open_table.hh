/**
 * @file
 * Generic open-addressing hash table with lazy-zero values.
 *
 * Extracted from the profiler's SeqTable (profile/reuse_tables.hh) so the
 * simulator's coherence directory can share the exact layout and probing
 * discipline: flat key/value arrays, keys stored as key+1 with 0 meaning
 * "empty" (keys are line or block numbers < 2^58, so +1 never wraps),
 * mix64 probing, linear open addressing and growth at 70% occupancy.
 * Values are value-initialized on first insert only — the value store is
 * default-initialized (left raw for trivial V), so construction and
 * growth only ever memset the key array.
 *
 * Thread-safety contract: not internally synchronized; each instance is
 * owned by exactly one thread at a time (the profiler assigns one table
 * per shard worker, the simulator one directory index per hierarchy
 * replica).
 */

#ifndef RPPM_COMMON_OPEN_TABLE_HH
#define RPPM_COMMON_OPEN_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/hash.hh"

namespace rppm {

/** Open-addressing map key -> V. V must be cheap to value-initialize. */
template <typename V>
class OpenTable
{
  public:
    explicit OpenTable(size_t initial_cap = size_t{1} << 8)
    {
        grow(initial_cap);
    }

    /**
     * Value slot for @p key; @p inserted reports whether the key was
     * fresh (value value-initialized), mirroring try_emplace. The
     * returned reference is invalidated by the next lookup() that
     * inserts (it may grow the table).
     */
    V &
    lookup(uint64_t key_in, bool &inserted)
    {
        if ((size_ + 1) * 10 >= cap_ * 7)
            grow(cap_ * 2);
        const uint64_t key = key_in + 1;
        size_t i = static_cast<size_t>(mix64(key)) & mask_;
        while (true) {
            if (keys_[i] == 0) {
                keys_[i] = key;
                ++size_;
                inserted = true;
                vals_[i] = V{};
                return vals_[i];
            }
            if (keys_[i] == key) {
                inserted = false;
                return vals_[i];
            }
            i = (i + 1) & mask_;
        }
    }

    size_t size() const { return size_; }

  private:
    void
    grow(size_t new_cap)
    {
        std::vector<uint64_t> old_keys = std::move(keys_);
        std::unique_ptr<V[]> old_vals = std::move(vals_);
        cap_ = new_cap;
        mask_ = cap_ - 1;
        keys_.assign(cap_, 0);
        // Default-initialization: trivial V stays raw here. Slots are
        // value-initialized by lookup() on first insert, and grow()
        // only ever reads slots whose key is live.
        vals_.reset(new V[cap_]);
        for (size_t i = 0; i < old_keys.size(); ++i) {
            if (old_keys[i] == 0)
                continue;
            size_t j = static_cast<size_t>(mix64(old_keys[i])) & mask_;
            while (keys_[j] != 0)
                j = (j + 1) & mask_;
            keys_[j] = old_keys[i];
            vals_[j] = old_vals[i];
        }
    }

    size_t cap_ = 0;
    size_t mask_ = 0;
    size_t size_ = 0;
    std::vector<uint64_t> keys_;
    std::unique_ptr<V[]> vals_;
};

} // namespace rppm

#endif // RPPM_COMMON_OPEN_TABLE_HH
