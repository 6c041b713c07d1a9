#pragma once
/// \file FlagField.h
/// Bitmask cell-state field. Each registered flag occupies one bit of an
/// 8-bit cell value, so a cell can simultaneously carry e.g. "boundary" and
/// "near-boundary" markers. Used to distinguish fluid cells from the
/// different boundary types during kernel execution and boundary sweeps.

#include <map>
#include <string>

#include "field/Field.h"

namespace walb::field {

using flag_t = std::uint8_t;

class FlagField : public Field<flag_t> {
public:
    FlagField(cell_idx_t xSize, cell_idx_t ySize, cell_idx_t zSize, cell_idx_t ghostLayers = 0)
        : Field<flag_t>(xSize, ySize, zSize, 1, Layout::fzyx, 0, ghostLayers) {}

    /// Registers a named flag and returns its bit mask. Registering the same
    /// name twice returns the same mask.
    flag_t registerFlag(const std::string& name) {
        auto it = flags_.find(name);
        if (it != flags_.end()) return it->second;
        WALB_ASSERT(nextBit_ < 8, "more than 8 flags registered");
        const flag_t mask = flag_t(1u << nextBit_++);
        flags_[name] = mask;
        return mask;
    }

    flag_t flag(const std::string& name) const {
        auto it = flags_.find(name);
        WALB_ASSERT(it != flags_.end(), "unknown flag '" << name << "'");
        return it->second;
    }

    void addFlag(cell_idx_t x, cell_idx_t y, cell_idx_t z, flag_t mask) {
        get(x, y, z) = flag_t(get(x, y, z) | mask);
    }
    void removeFlag(cell_idx_t x, cell_idx_t y, cell_idx_t z, flag_t mask) {
        get(x, y, z) = flag_t(get(x, y, z) & flag_t(~mask));
    }
    bool isFlagSet(cell_idx_t x, cell_idx_t y, cell_idx_t z, flag_t mask) const {
        return (get(x, y, z) & mask) != 0;
    }

    /// Number of interior cells with any bit of `mask` set.
    uint_t count(flag_t mask) const {
        uint_t n = 0;
        forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            if (get(x, y, z) & mask) ++n;
        });
        return n;
    }

private:
    std::map<std::string, flag_t> flags_;
    unsigned nextBit_ = 0;
};

} // namespace walb::field
