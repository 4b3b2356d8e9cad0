/**
 * @file
 * Vendor A's counter-based TRR (paper §6.1, Observations A1-A7).
 *
 * Behavioural summary implemented here:
 *  - every 9th REF command is TRR-capable (Obs. A1);
 *  - each bank keeps a 16-entry counter table: an ACT increments the
 *    entry of the activated row, inserting it (evicting the entry with
 *    the smallest counter) if absent (Obs. A4, A5);
 *  - TRR-capable REFs alternate between two operations (Obs. A3):
 *      TREF_a: detect the entry with the highest counter value,
 *      TREF_b: detect the entry a table-traversal pointer refers to and
 *              advance the pointer;
 *  - a detected entry's counter resets to zero but the entry stays in
 *    the table indefinitely (Obs. A6, A7).
 *
 * Victim expansion (+-1 and +-2 for A_TRR1, +-1 for A_TRR2; Obs. A2) is
 * performed by the chip, not here.
 */

#ifndef UTRR_TRR_VENDOR_A_HH
#define UTRR_TRR_VENDOR_A_HH

#include <cstdint>
#include <vector>

#include "trr/trr.hh"

namespace utrr
{

/**
 * Counter-based per-bank TRR (vendor A).
 */
class VendorATrr : public TrrMechanism
{
  public:
    /** Tuning knobs, defaulted to the reverse-engineered values. */
    struct Params
    {
        int tableEntries = 16;
        int trrRefPeriod = 9;
    };

    explicit VendorATrr(int banks) : VendorATrr(banks, Params()) {}
    VendorATrr(int banks, Params params);

    void onActivate(Bank bank, Row phys_row) override;
    void onActivateRoundRobin(const Bank *banks, const Row *phys_rows,
                              int n, int rounds) override;
    std::vector<TrrRefreshAction> onRefresh() override;
    void reset() override;
    std::unique_ptr<TrrMechanism> clone() const override;
    std::string name() const override { return "A-counter"; }

    /** White-box view of one bank's table (row, counter) pairs. */
    std::vector<std::pair<Row, std::uint64_t>> tableOf(Bank bank) const;

  protected:
    void onGroundTruthAttached() override;

  private:
    struct Entry
    {
        Row row = kInvalidRow;
        std::uint64_t count = 0;
    };

    struct BankState
    {
        std::vector<Entry> table;
        std::size_t trefBPtr = 0;
    };

    /** @p phys_row's entry in @p bank's table, or nullptr. */
    Entry *entryOf(Bank bank, Row phys_row);

    Params params;
    std::vector<BankState> bankState;
    std::uint64_t refCount = 0;
    bool nextIsTrefB = false;

    // Ground-truth handles (resolved once at attach; null = detached).
    Counter *gtTrrRefs = nullptr;
    Counter *gtDetections = nullptr;
    std::vector<Gauge *> gtOccupancy;
};

} // namespace utrr

#endif // UTRR_TRR_VENDOR_A_HH
