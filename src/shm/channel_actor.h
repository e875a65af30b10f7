// Sensor channel actors: the per-stream heart of the SHM platform (paper
// §4.2). A physical channel holds the in-memory window of raw data points
// from one logger stream, maintains the accumulated change (functional
// requirement 4), raises threshold alerts (requirement 5), and feeds its
// hour-level aggregator and optionally a virtual channel. A virtual channel
// derives a computed stream (an "equation") from several physical channels.

#ifndef AODB_SHM_CHANNEL_ACTOR_H_
#define AODB_SHM_CHANNEL_ACTOR_H_

#include <cmath>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "actor/actor_ref.h"
#include "actor/runtime.h"
#include "shm/types.h"
#include "storage/persistent_actor.h"

namespace aodb {
namespace shm {

/// The statistics chain attached to a channel: hour feeds day feeds month
/// (paper §4.2's hierarchy of Aggregator actors). Empty keys disable a
/// level.
struct AggChainSpec {
  std::string hour_key;
  std::string day_key;
  std::string month_key;
  Micros hour_len_us = 0;
  Micros day_len_us = 0;
  Micros month_len_us = 0;

  void Encode(BufWriter* w) const {
    w->PutString(hour_key);
    w->PutString(day_key);
    w->PutString(month_key);
    w->PutSigned(hour_len_us);
    w->PutSigned(day_len_us);
    w->PutSigned(month_len_us);
  }
  Status Decode(BufReader* r) {
    AODB_RETURN_NOT_OK(r->GetString(&hour_key));
    AODB_RETURN_NOT_OK(r->GetString(&day_key));
    AODB_RETURN_NOT_OK(r->GetString(&month_key));
    AODB_RETURN_NOT_OK(r->GetSigned(&hour_len_us));
    AODB_RETURN_NOT_OK(r->GetSigned(&day_len_us));
    return r->GetSigned(&month_len_us);
  }
};

/// Name of the channel-by-organization secondary index (see aodb/index.h)
/// maintained when ChannelConfig::indexed is set.
inline constexpr char kChannelsByOrgIndex[] = "shm.channels_by_org";

/// Static configuration of a physical channel.
struct ChannelConfig {
  std::string org_key;
  std::string aggregator_key;     ///< Hour-level aggregator (may be empty).
  std::string virtual_key;        ///< Virtual channel fed by this one.
  std::string alert_user_key;     ///< User notified on threshold crossings.
  double threshold_low = 0;
  double threshold_high = 0;
  bool has_threshold_low = false;
  bool has_threshold_high = false;
  int window_capacity = 1024;
  /// When true the channel registers itself in the AODB type registry and
  /// the channels-by-organization index on configuration, enabling
  /// declarative multi-actor queries (aodb/query.h) over channels.
  bool indexed = false;

  void Encode(BufWriter* w) const;
  Status Decode(BufReader* r);
};

/// Durable state of a physical channel. A durable append is journaled as
/// its points (EncodeDelta), not as a rewrite of the whole window.
struct ChannelState {
  ChannelConfig config;
  std::deque<DataPoint> window;
  double accumulated_change = 0;
  int64_t total_points = 0;

  void Encode(BufWriter* w) const;
  Status Decode(BufReader* r);

  /// Appends to the window (evicting the oldest points past capacity) and
  /// updates the accumulated change and the total. Shared by ingestion and
  /// journal replay.
  void AppendPoints(const std::vector<DataPoint>& points);
  /// The journal record of one append.
  static void EncodeDelta(const std::vector<DataPoint>& points, BufWriter* w);
  /// Replays an EncodeDelta record; Corruption, with the state untouched,
  /// on anything else.
  Status ApplyDelta(BufReader* r);
};

/// Reply of a raw time-range query; carries the access-control verdict.
struct RangeReply {
  bool authorized = true;
  std::vector<DataPoint> points;

  void Encode(BufWriter* w) const {
    w->PutBool(authorized);
    w->PutVector(points, [](BufWriter& bw, const DataPoint& p) {
      p.Encode(&bw);
    });
  }
  Status Decode(BufReader* r) {
    AODB_RETURN_NOT_OK(r->GetBool(&authorized));
    return r->GetVector(&points, [](BufReader& br, DataPoint* p) {
      return DataPoint::DecodeInto(&br, p);
    });
  }
};

/// Physical sensor channel actor.
class PhysicalChannelActor : public PersistentActor<ChannelState> {
 public:
  static constexpr char kTypeName[] = "shm.Channel";

  explicit PhysicalChannelActor(PersistenceOptions persistence = {})
      : PersistentActor<ChannelState>(std::move(persistence)) {}

  /// Installs the channel's configuration (idempotent).
  Status Configure(ChannelConfig config);

  /// Configure plus wiring of the channel's aggregation chain. Issued by
  /// the owning sensor so that prefer-local placement co-locates the
  /// channel and its aggregators with the sensor (paper §5).
  Status ConfigureFull(ChannelConfig config, AggChainSpec aggs);

  /// Ingests a batch of raw points: updates the window and accumulated
  /// change, raises alerts, and forwards downstream (aggregator, virtual
  /// channel). The returned OK acknowledges only the in-memory update.
  Status Append(std::vector<DataPoint> points);

  /// Append with a write-through acknowledgement: completes OK only after
  /// the points are durable in the storage provider (with the persistence
  /// retry policy applied), usually as one journal record. This is the
  /// ingestion path whose acks survive a silo crash.
  Future<Status> AppendDurable(std::vector<DataPoint> points);

  /// Most recent value.
  LiveDataEntry Latest();

  /// Raw points with ts in [from, to), oldest first, subject to tenant
  /// access control: a non-empty caller tenant must match the channel's
  /// organization.
  RangeReply Range(Micros from, Micros to);

  /// Sum of |delta| over the stream's lifetime (how far the element moved).
  double AccumulatedChange();

  int64_t TotalPoints();

 private:
  bool CallerMayRead() const;
  /// Raises the threshold alerts of appended points and forwards them to
  /// the aggregator and the virtual channel.
  void Forward(std::vector<DataPoint> points);
};

/// Static configuration of a virtual channel.
struct VirtualChannelConfig {
  std::string org_key;
  std::string aggregator_key;
  std::vector<std::string> source_keys;
  int window_capacity = 1024;

  void Encode(BufWriter* w) const;
  Status Decode(BufReader* r);
};

/// Durable state of a virtual channel.
struct VirtualChannelState {
  VirtualChannelConfig config;
  std::map<std::string, double> latest_by_source;
  std::deque<DataPoint> window;
  int64_t total_points = 0;

  void Encode(BufWriter* w) const;
  Status Decode(BufReader* r);
};

/// Virtual sensor channel actor: computes the derived stream
/// value(t) = sum of the latest values of its source channels (the paper's
/// experiments use exactly this summation equation).
class VirtualChannelActor : public PersistentActor<VirtualChannelState> {
 public:
  static constexpr char kTypeName[] = "shm.VirtualChannel";

  explicit VirtualChannelActor(PersistenceOptions persistence = {})
      : PersistentActor<VirtualChannelState>(std::move(persistence)) {}

  Status Configure(VirtualChannelConfig config);

  /// Configure plus aggregation-chain wiring (see PhysicalChannelActor).
  Status ConfigureFull(VirtualChannelConfig config, AggChainSpec aggs);

  /// Called by a source physical channel with its fresh batch; produces one
  /// derived point per input point.
  Status SourceUpdate(std::string source_key, std::vector<DataPoint> points);

  LiveDataEntry Latest();
  RangeReply Range(Micros from, Micros to);
  int64_t TotalPoints();

 private:
  bool CallerMayRead() const;
};

}  // namespace shm
}  // namespace aodb

#endif  // AODB_SHM_CHANNEL_ACTOR_H_
