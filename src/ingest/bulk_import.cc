#include "ingest/bulk_import.h"

namespace ips {

BulkImporter::BulkImporter(BulkImportOptions options, IpsClient* client,
                           Deployment* deployment, Clock* clock)
    : options_(std::move(options)),
      client_(client),
      deployment_(deployment),
      clock_(clock) {}

void BulkImporter::SetIsolationEverywhere(bool enabled) {
  for (const auto& region : deployment_->region_names()) {
    for (auto* node : deployment_->NodesInRegion(region)) {
      node->instance().SetIsolationEnabled(enabled);
    }
  }
}

Result<BulkImportReport> BulkImporter::Run(
    const std::vector<Instance>& instances,
    const std::function<void(size_t processed)>& progress) {
  if (!client_->HasTableAnywhere(options_.table)) {
    return Status::NotFound("table " + options_.table);
  }
  SetIsolationEverywhere(true);

  // Records per batch between progress callbacks.
  constexpr size_t kBatchSize = 1024;
  BulkImportReport report;
  size_t processed = 0;
  for (const Instance& instance : instances) {
    AddRecord record;
    record.timestamp = instance.timestamp;
    record.slot = instance.slot;
    record.type = instance.type;
    record.fid = instance.item_id;
    record.counts = instance.counts;

    Status status = Status::OK();
    int attempts = 0;
    for (;;) {
      status = client_->AddProfilesAs(options_.caller, options_.table,
                                      instance.uid, {record});
      if (!status.IsResourceExhausted()) break;
      // Quota pacing: the server told the back-fill job to slow down.
      ++report.quota_backoffs;
      if (++attempts > kRetryLimit) break;
      clock_->SleepMs(kBackoffMs);
    }
    if (status.ok()) {
      ++report.imported;
    } else {
      ++report.failed;
    }
    if (++processed % kBatchSize == 0 && progress != nullptr) {
      progress(processed);
    }
  }
  if (progress != nullptr && processed % kBatchSize != 0) {
    progress(processed);
  }

  // Turning isolation back off drains the buffered writes immediately.
  SetIsolationEverywhere(false);
  return report;
}

}  // namespace ips
