// Resilient crawl: surviving a flaky hidden-Web source.
//
// Real sources time out, rate-limit, and drop records mid-page. This
// example wraps the simulated server in a FaultyServer that injects
// exactly those behaviours (deterministically, from a seed), attaches a
// RetryPolicy to the crawler, and shows the crawl finishing anyway:
//
//   FaultyServer   — fault-injecting proxy over any QueryInterface
//   FaultProfile   — declarative per-round fault probabilities
//   RetryPolicy    — capped exponential backoff + graceful degradation
//
// Compare with quickstart.cpp: the crawl loop is identical; resilience
// is purely a matter of which QueryInterface the crawler talks to and
// whether a RetryPolicy is attached.

#include <iostream>

#include "src/crawler/crawl_engine.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/crawler/retry_policy.h"
#include "src/datagen/canned_workloads.h"
#include "src/server/faulty_server.h"
#include "src/server/web_db_server.h"

using namespace deepcrawl;

int main() {
  // --- 1. a mid-sized structured source --------------------------------
  StatusOr<Table> db = GenerateTable(EbayConfig(/*scale=*/0.02, /*seed=*/3));
  if (!db.ok()) {
    std::cerr << "datagen failed: " << db.status().ToString() << "\n";
    return 1;
  }

  // --- 2. the same source, behind a flaky network ----------------------
  WebDbServer backend(*db, ServerOptions());
  FaultProfile profile;
  profile.unavailable_rate = 0.08;  // 503s
  profile.timeout_rate = 0.04;      // deadline expiries
  profile.rate_limit_rate = 0.03;   // 429s carrying a retry-after hint
  profile.retry_after_rounds = 4;
  FaultyServer server(backend, profile, /*seed=*/17);

  // --- 3. crawl with retries -------------------------------------------
  RetryPolicyConfig retry_config;
  retry_config.max_attempts = 4;  // per drain, then re-queue
  retry_config.max_requeues = 2;  // then abandon the value
  RetryPolicy retry(retry_config);

  LocalStore store;
  GreedyLinkSelector selector(store);
  CrawlEngine crawler(server, selector, store, CrawlOptions{}, EngineOptions{},
                      /*abort_policy=*/nullptr, &retry);
  ValueId seed_value = 0;
  while (db->value_frequency(seed_value) == 0) ++seed_value;
  crawler.AddSeed(seed_value);

  StatusOr<CrawlResult> result = crawler.Run();
  if (!result.ok()) {
    // Only non-retryable errors (bugs, bad fixtures) land here; the
    // transient faults above were all absorbed by the policy.
    std::cerr << "crawl failed: " << result.status().ToString() << "\n";
    return 1;
  }

  // --- 4. what resilience cost -----------------------------------------
  double coverage = static_cast<double>(result->records) /
                    static_cast<double>(db->num_records());
  const ResilienceCounters& r = result->resilience;
  const FaultCounters& injected = server.fault_counters();
  std::cout << "crawled " << result->records << " of " << db->num_records()
            << " records (" << static_cast<int>(coverage * 100.0)
            << "% coverage) in " << result->rounds << " rounds\n\n"
            << "injected by the proxy: " << injected.unavailable
            << " unavailable, " << injected.timeouts << " timeouts, "
            << injected.rate_limited << " rate limits\n"
            << "absorbed by the crawler: " << r.transient_failures
            << " failed fetches, " << r.retries << " retries, "
            << r.backoff_ticks << " simulated ticks backing off\n"
            << "degraded: " << r.requeues << " re-queues, "
            << r.abandoned_values << " values abandoned\n\n"
            << "simulated clock at crawl end: " << crawler.clock().now()
            << " ticks\n";
  return 0;
}
