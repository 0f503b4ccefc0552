#include "reference/shaping_oracle.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <span>
#include <unordered_map>
#include <vector>

namespace pmiot::reference {

namespace {

using net::Packet;

constexpr int kMtu = 1400;
constexpr double kCommonSlotS = 1.0;
constexpr double kMinSlotS = 0.25;
constexpr double kMaxSlotS = 60.0;
constexpr std::size_t kShaperQueueCap = 12;
constexpr std::uint16_t kCoverSrcPort = 40000;

double total_bytes(std::span<const Packet> packets) {
  double sum = 0.0;
  for (const auto& p : packets) sum += p.size_bytes;
  return sum;
}

int quantize_size(int size_bytes, int quantum) {
  if (size_bytes <= 0) return quantum;
  return ((size_bytes + quantum - 1) / quantum) * quantum;
}

bool earlier(const Packet& a, const Packet& b) {
  return a.timestamp_s < b.timestamp_s;
}

}  // namespace

net::ShapedCapture constant_rate_padding(const net::HomeNetwork& home,
                                         double duration_s, double intensity,
                                         Rng& rng) {
  std::unordered_map<std::uint32_t, std::size_t> device_index;
  for (std::size_t i = 0; i < home.devices.size(); ++i) {
    device_index.emplace(home.devices[i].ip, i);
  }
  // One lane per roster device per direction: [2i] up, [2i + 1] down.
  std::vector<std::vector<const Packet*>> lanes(home.devices.size() * 2);

  net::ShapedCapture out;
  out.original_bytes = total_bytes(home.packets);
  for (const auto& p : home.packets) {
    const bool wan = !net::is_lan(p.src_ip) || !net::is_lan(p.dst_ip);
    if (wan && net::is_lan(p.src_ip)) {
      if (const auto it = device_index.find(p.src_ip);
          it != device_index.end()) {
        lanes[it->second * 2].push_back(&p);
        continue;
      }
    } else if (wan && net::is_lan(p.dst_ip)) {
      if (const auto it = device_index.find(p.dst_ip);
          it != device_index.end()) {
        lanes[it->second * 2 + 1].push_back(&p);
        continue;
      }
    }
    out.packets.push_back(p);
  }
  const std::size_t passed_through = out.packets.size();

  const int quantum = std::max(
      1, static_cast<int>(std::lround(intensity * static_cast<double>(kMtu))));
  for (std::size_t li = 0; li < lanes.size(); ++li) {
    const auto& lane = lanes[li];
    const auto& dev = home.devices[li / 2];
    const bool up = (li % 2) == 0;

    double lane_gap = kCommonSlotS;
    if (lane.size() >= 2) {
      lane_gap = (lane.back()->timestamp_s - lane.front()->timestamp_s) /
                 static_cast<double>(lane.size() - 1);
    }
    lane_gap = std::clamp(lane_gap, kMinSlotS, kMaxSlotS);
    const double slot_s =
        (1.0 - intensity) * lane_gap + intensity * kCommonSlotS;

    std::uint32_t peer = dev.cloud_ip;
    std::size_t best = 0;
    std::unordered_map<std::uint32_t, std::size_t> peer_counts;
    for (const Packet* p : lane) {
      const auto remote = up ? p->dst_ip : p->src_ip;
      const auto n = ++peer_counts[remote];
      if (n > best) {
        best = n;
        peer = remote;
      }
    }
    double mean_size = 120.0;
    if (!lane.empty()) {
      double sum = 0.0;
      for (const Packet* p : lane) sum += p->size_bytes;
      mean_size = sum / static_cast<double>(lane.size());
    }
    const int cover_size =
        quantize_size(static_cast<int>(std::lround(mean_size)), quantum);
    const double phase = rng.uniform(0.0, slot_s);

    const auto emit_at_real_time = [&](const Packet& p) {
      Packet q = p;
      q.size_bytes = quantize_size(q.size_bytes, quantum);
      out.packets.push_back(q);
    };
    std::deque<const Packet*> queue;
    std::size_t next = 0;
    for (std::size_t slot = 0;; ++slot) {
      const double t = phase + static_cast<double>(slot) * slot_s;
      if (t >= duration_s) break;
      while (next < lane.size() && lane[next]->timestamp_s <= t) {
        queue.push_back(lane[next++]);
        if (queue.size() > kShaperQueueCap) {
          emit_at_real_time(*queue.front());
          queue.pop_front();
        }
      }
      if (!queue.empty()) {
        const Packet* p = queue.front();
        queue.pop_front();
        Packet q = *p;
        q.timestamp_s = t;
        q.size_bytes = quantize_size(q.size_bytes, quantum);
        out.packets.push_back(q);
        if (t > p->timestamp_s) {
          out.added_latency_s += t - p->timestamp_s;
          ++out.delayed_packets;
        }
      } else if (up) {
        out.packets.push_back(Packet{t, dev.ip, peer, kCoverSrcPort, 443,
                                     net::Protocol::kTcp, cover_size});
      } else {
        out.packets.push_back(Packet{t, peer, dev.ip, 443, kCoverSrcPort,
                                     net::Protocol::kTcp, cover_size});
      }
    }
    while (next < lane.size()) queue.push_back(lane[next++]);
    for (const Packet* p : queue) emit_at_real_time(*p);
  }

  // The passed-through prefix is in capture order, hence sorted; the
  // emitted tail is stable-sorted and merged in after it.
  const auto mid =
      out.packets.begin() + static_cast<std::ptrdiff_t>(passed_through);
  std::stable_sort(mid, out.packets.end(), earlier);
  std::inplace_merge(out.packets.begin(), mid, out.packets.end(), earlier);
  out.added_bytes = total_bytes(out.packets) - out.original_bytes;
  return out;
}

}  // namespace pmiot::reference
