// Fixture: a blocking condvar handoff between tick-pipeline stages must
// be flagged under src/engines/ (and src/interrogate/) — workers claim
// jobs from an atomic cursor and publish per-slot ready flags, so the
// commit thread helps execute jobs instead of sleeping on a signal.
#include <condition_variable>

struct StageHandoff {
  std::condition_variable cv;  // expect: raw-condvar
  bool ready = false;
};

template <typename Lock>
void AwaitResult(StageHandoff& handoff, Lock& lock) {
  handoff.cv.wait(lock, [&] { return handoff.ready; });  // expect: raw-condvar
}

void PublishResult(StageHandoff& handoff) {
  handoff.ready = true;
  handoff.cv.notify_one();  // expect: raw-condvar
}
