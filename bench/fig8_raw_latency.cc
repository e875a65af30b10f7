// Figure 8 reproduction: latency percentiles of raw sensor-channel
// time-range requests, concurrent with data ingestion.
//
// Paper setup: one silo; sensors in {500, 1000, 1500, 2000} each inserting
// once per second; user queries mixed in at ~1% live-data and ~1% raw-range
// (one of each per organization per second). The paper reports latency
// percentiles (including the 99.9th) growing with offered load but staying
// interactive — raw-range requests "often substantially below 0.5 sec" at
// 2,000 sensors (the 80% utilization design point).

#include <cstdio>

#include "common/table_printer.h"
#include "shm_bench_util.h"

namespace {

/// Integer mean of a byte counter over a message counter in a metrics delta
/// (0 when no message was counted).
int64_t MeanBytes(const aodb::MetricsSnapshot& m, const char* bytes,
                  const char* messages) {
  int64_t n = m.counters.at(messages);
  return n > 0 ? m.counters.at(bytes) / n : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aodb;
  using namespace aodb::bench;

  MetricsJsonWriter metrics_out(MetricsJsonPathFromArgs(argc, argv));
  std::printf(
      "=== Figure 8: raw time-range request latency under ingestion load "
      "===\n");
  std::printf(
      "Mix: 98%% inserts / ~1%% live / ~1%% raw; 1 silo x 3 vCPU m5.xlarge\n");
  std::printf("Paper reference: sub-0.5s raw latency at 2000 sensors; tail "
              "grows with load\n\n");

  TablePrinter table({"sensors", "raw_reqs", "mean_ms", "p50_ms", "p90_ms",
                      "p99_ms", "p99.9_ms", "max_ms", "util%", "req_B/op",
                      "rsp_B/op"});

  const int kSweep[] = {500, 1000, 1500, 2000};
  for (int sensors : kSweep) {
    ShmRunConfig config;
    config.runtime.num_silos = 1;
    config.runtime.workers_per_silo = 3;  // m5.xlarge.
    config.runtime.seed = 2000 + sensors;
    config.topology.sensors = sensors;
    config.load.duration_us = BenchDurationUs();
    config.load.user_queries = true;
    config.runtime.trace.sample_every = TraceSampleFromEnv();
    ShmRunResult r = RunShmExperiment(config);
    if (!r.setup_ok) {
      std::fprintf(stderr, "setup failed at %d sensors\n", sensors);
      return 1;
    }
    metrics_out.Add("sensors=" + std::to_string(sensors), r.metrics);
    const Histogram& h = r.report.raw_latency_us;
    table.AddRow({TablePrinter::Fmt(static_cast<int64_t>(sensors)),
                  TablePrinter::Fmt(h.count()),
                  TablePrinter::FmtMsFromUs(static_cast<int64_t>(h.Mean())),
                  TablePrinter::FmtMsFromUs(h.Percentile(50)),
                  TablePrinter::FmtMsFromUs(h.Percentile(90)),
                  TablePrinter::FmtMsFromUs(h.Percentile(99)),
                  TablePrinter::FmtMsFromUs(h.Percentile(99.9)),
                  TablePrinter::FmtMsFromUs(h.max()),
                  TablePrinter::Fmt(r.utilization * 100, 1),
                  // Measured mean encoded frame sizes: every client
                  // operation crosses the client->silo boundary on the wire
                  // lane, so per-op bytes are wire totals over wire counts.
                  TablePrinter::Fmt(MeanBytes(r.metrics, "wire.request_bytes",
                                              "wire.requests")),
                  TablePrinter::Fmt(MeanBytes(r.metrics, "wire.reply_bytes",
                                              "wire.replies"))});
  }
  table.Print();
  if (!metrics_out.Write()) return 1;
  std::printf(
      "\nShape check: monotone growth with load; pronounced 99.9th tail;"
      "\nwell under 1s at the 2,000-sensor / ~80%% utilization design "
      "point.\n");
  return 0;
}
