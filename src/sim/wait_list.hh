/**
 * @file
 * One-shot waiters for a resource that frees up: a WPQ slot, a SecPB
 * entry, a store-buffer slot.
 */

#ifndef SECPB_SIM_WAIT_LIST_HH
#define SECPB_SIM_WAIT_LIST_HH

#include <vector>

#include "sim/callback.hh"
#include "sim/logging.hh"

namespace secpb
{

/**
 * Callbacks woken all at once, in registration order. A waiter that
 * re-registers from inside its callback lands in the emptied list and
 * waits for the next wake. The wake runs over a scratch vector that
 * swaps with the list, so neither gives up its storage and a wake
 * never allocates; a wake must therefore not re-enter itself.
 */
class WaitList
{
  public:
    void add(InlineCallback cb) { _waiters.push_back(std::move(cb)); }

    /** Fire and clear every registered waiter. */
    void
    wakeAll()
    {
        if (_waiters.empty())
            return;
        panic_if(!_waking.empty(), "wait-list wake re-entered");
        _waking.swap(_waiters);
        for (auto &w : _waking)
            w();
        _waking.clear();
    }

  private:
    std::vector<InlineCallback> _waiters;
    std::vector<InlineCallback> _waking;
};

} // namespace secpb

#endif // SECPB_SIM_WAIT_LIST_HH
