package fleet

import "idyll/internal/service"

// The coordinator's counters, rendered in its /metrics idylld_ section next
// to the counters of the service.Server it embeds.
var (
	// fleetReroutes counts dispatches retried on another worker.
	fleetReroutes = service.NewCounter("fleet_reroutes")
	// fleetReplications counts results pushed to a further worker.
	fleetReplications = service.NewCounter("fleet_replications")
	// fleetDegradedLocalRuns counts jobs the coordinator ran itself because
	// no worker was routable.
	fleetDegradedLocalRuns = service.NewCounter("fleet_degraded_local_runs")
	// fleetBreakerTrips counts worker circuit breakers tripped open.
	fleetBreakerTrips = service.NewCounter("fleet_breaker_trips")
	// fleetBreakerTripsWorker counts breaker trips per worker.
	fleetBreakerTripsWorker = service.NewFamily("fleet_breaker_trips_worker", "worker")
	// fleetJobsDispatched counts jobs a worker finished, per worker.
	fleetJobsDispatched = service.NewFamily("fleet_jobs_dispatched", "worker")
)

// fleetResults counts dispatched results by how the worker obtained them.
// A worker's job status is untrusted input: a source outside these three
// counts nowhere, so it can neither forge a /metrics line nor grow the set.
var fleetResults = map[string]*service.Counter{
	// fleet_results_computed: the worker ran the simulation.
	service.SourceComputed: service.NewCounter("fleet_results_computed"),
	// fleet_results_cache: the worker answered from its own cache.
	service.SourceCache: service.NewCounter("fleet_results_cache"),
	// fleet_results_peer: the worker fetched the result from a peer.
	service.SourcePeer: service.NewCounter("fleet_results_peer"),
}

// A worker's counters, kept by its peer-fill client.
var (
	// peerVerifyFailures counts peer result fills dropped for a bad
	// checksum.
	peerVerifyFailures = service.NewCounter("peer_verify_failures")
	// ckptPeerVerifyFailures counts peer checkpoint fills dropped for a bad
	// checksum.
	ckptPeerVerifyFailures = service.NewCounter("ckpt_peer_verify_failures")
)
