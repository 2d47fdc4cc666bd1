// Bulk (batch) import — the Spark-job path of Fig 5 and the back-fill
// scenario of Section III-F: an offline job loads a large volume of
// historical instance data into an IPS cluster while the cluster keeps
// serving online traffic. The job:
//   * turns read-write isolation ON for the duration (the hot switch the
//     paper provides exactly for this case), so buffered bulk writes do not
//     contend with online queries on the main tables;
//   * writes under its own caller identity so the server-side quota can
//     pace it independently of online callers;
//   * processes its input in deterministic batches with retry-on-quota
//     backoff, reporting progress.
#ifndef IPS_INGEST_BULK_IMPORT_H_
#define IPS_INGEST_BULK_IMPORT_H_

#include <functional>
#include <string>
#include <vector>

#include "cluster/client.h"
#include "common/clock.h"
#include "common/status.h"
#include "ingest/events.h"

namespace ips {

struct BulkImportOptions {
  std::string table = "user_profile";
  std::string caller = "bulk-import";
};

struct BulkImportReport {
  size_t imported = 0;
  size_t failed = 0;
  size_t quota_backoffs = 0;
};

class BulkImporter {
 public:
  /// On quota rejection, wait this long (simulated) before retrying.
  static constexpr int64_t kBackoffMs = 200;
  /// Give up on a record after this many quota retries (counted as failed).
  static constexpr int kRetryLimit = 50;

  BulkImporter(BulkImportOptions options, IpsClient* client,
               Deployment* deployment, Clock* clock);

  /// Imports all instances with isolation on across the deployment, then
  /// turns it off, draining the buffered writes. Blocking; `progress`
  /// (optional) is invoked after each batch with records processed so far.
  Result<BulkImportReport> Run(
      const std::vector<Instance>& instances,
      const std::function<void(size_t processed)>& progress = nullptr);

 private:
  void SetIsolationEverywhere(bool enabled);

  BulkImportOptions options_;
  IpsClient* client_;
  Deployment* deployment_;
  Clock* clock_;
};

}  // namespace ips

#endif  // IPS_INGEST_BULK_IMPORT_H_
