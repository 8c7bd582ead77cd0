// unordered-arrival, positive: a link handing out arrival times outside
// the channel model breaks the per-link FIFO clamp.
struct Channel {
  long NextArrival(long now) { return now + 1; }
  long UnorderedArrival(long now) { return now - 1; }
};

struct Link {
  long Deliver(long now) { return channel_.UnorderedArrival(now); }
  Channel channel_;
};
