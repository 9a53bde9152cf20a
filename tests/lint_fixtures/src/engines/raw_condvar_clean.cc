// Fixture: the sanctioned stage handoff — jobs are claimed from a shared
// atomic cursor and the committer spins productively (help-or-commit)
// rather than blocking on a condition variable. Must lint clean.
#include <atomic>
#include <cstddef>
#include <thread>

void DrainJobs(std::atomic<std::size_t>& next, std::size_t n) {
  for (std::size_t job = next.fetch_add(1); job < n; job = next.fetch_add(1)) {
    // execute the job; no blocking handoff anywhere in the loop
  }
  std::this_thread::yield();
}
