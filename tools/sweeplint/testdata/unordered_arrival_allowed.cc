// unordered-arrival, suppressed: the annotation sits in the contiguous
// comment block above the call, in the middle of an expression.
struct Channel {
  long NextArrival(long now) { return now + 1; }
  long UnorderedArrival(long now) { return now - 1; }
};

struct Link {
  long Deliver(long now, bool fifo) {
    return fifo ? channel_.NextArrival(now)
                // sweeplint:allow unordered-arrival fault injection
                // deliberately reorders this link
                : channel_.UnorderedArrival(now);
  }
  Channel channel_;
};
