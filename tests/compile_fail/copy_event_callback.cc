// Compile-fail fixture: copying an EventQueue::Callback must not compile.
//
// This file is NOT part of any build target.  The
// copy_event_callback_compile_fail ctest (tests/CMakeLists.txt) compiles it
// and expects the compiler to reject it; if it ever compiles, the callback
// has become copyable and a scheduled handler could be copied behind its
// owner's back.  The copy_event_callback_control_compiles ctest builds it
// with -DODYSSEY_COMPILE_FAIL_CONTROL, which drops only the copy, and
// expects success.

#include <utility>

#include "src/sim/event_queue.h"

namespace odyssey {

void SchedulesACallback(EventQueue* queue) {
  int fired = 0;
  EventQueue::Callback callback = [&fired] { ++fired; };
#ifdef ODYSSEY_COMPILE_FAIL_CONTROL
  queue->PostAt(1, std::move(callback));
#else
  EventQueue::Callback copy = callback;  // must fail: the callback is move-only
  queue->PostAt(1, std::move(copy));
#endif
}

}  // namespace odyssey
