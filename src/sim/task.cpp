#include "sim/task.hpp"

// The frame cache's cold paths: arming the thread-exit release, the
// trim and the release, and the census the tests read.

namespace rr::sim::detail {

void FrameCache::adopt() noexcept {
  // A thread-local with a destructor, constructed on the thread's first
  // cached frame, so that the thread's exit runs it.  local_ itself is
  // trivially destructible and outlives it: a frame freed later in the
  // thread's exit sees kReleased and goes straight to ::operator delete.
  struct Releaser {
    ~Releaser() { release(); }
  };
  thread_local Releaser releaser;
  local_.state_ = State::kLive;
}

void FrameCache::trim() noexcept {
  for (std::size_t c = 0; c < kClasses; ++c) {
    const std::size_t bytes = (c + 1) * kGranule;
    while (Node* frame = local_.heads_[c]) {
      unpoison(frame, bytes);
      local_.heads_[c] = frame->next;
      ::operator delete(frame, bytes);
    }
  }
}

void FrameCache::release() noexcept {
  trim();
  local_.state_ = State::kReleased;
}

std::size_t FrameCache::cached_frames() {
  std::size_t frames = 0;
  for (std::size_t c = 0; c < kClasses; ++c) {
    const std::size_t bytes = (c + 1) * kGranule;
    for (Node* frame = local_.heads_[c]; frame != nullptr;) {
      unpoison(frame, bytes);
      Node* const next = frame->next;
      poison(frame, bytes);
      frame = next;
      ++frames;
    }
  }
  return frames;
}

}  // namespace rr::sim::detail
