// escape-capture fixture: a sink whose parameter is the event queue's
// move-only EventQueue::Callback, a class rather than a std::function alias.
#include <utility>
#include <vector>

#include "src/sim/event_queue.h"

namespace odyssey {

class Deferrer {
 public:
  void Defer(EventQueue::Callback cb) { pending_.push_back(std::move(cb)); }

 private:
  std::vector<EventQueue::Callback> pending_;
};

void Wire(Deferrer* deferrer) {
  int fired = 0;
  deferrer->Defer([&fired] { ++fired; });  // line 20: flagged
}

}  // namespace odyssey
