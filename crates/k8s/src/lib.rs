//! # k8s-sim — the Kubernetes layer: kubelet, scheduler, cluster
//!
//! The top of the paper's Figure 1 stack: an N-node cluster of worker
//! [`node::Node`]s (the paper's testbed is one 20-core/256 GiB machine —
//! the 1-node special case) whose kubelets drive containerd through the
//! CRI, with the §III-C extension raising max-pods to 500 so that the
//! 400-container density experiments can run. Placement goes through
//! [`scheduler::Scheduler`]; [`api::DeploymentController`] adds replica
//! reconciliation, rolling updates and an HPA on top.
//!
//! Two observers produce the paper's memory numbers:
//! * [`metrics`] — the metrics-server reading per-pod cgroup working sets
//!   ("measured by Kubernetes", Figs. 3 and 6);
//! * [`simkernel::Kernel::free`] — the system-wide `free(1)` reading
//!   ("measured by the OS", Figs. 4, 5 and 7), which also sees shim
//!   processes, daemon growth, kernel overhead and the page cache.

#![forbid(unsafe_code)]

pub mod api;
pub mod cluster;
pub mod kubelet;
pub mod metrics;
pub mod node;
pub mod scheduler;
pub mod service;

pub use api::{
    Deployment, DeploymentController, DeploymentSpec, HpaDecision, HpaSpec, PodPhase, PodRecord,
    PodSpec, ProbeSpec, ReplicaEntry, RolloutReport, RolloutStep,
};
pub use cluster::{Cluster, ClusterStats, DeployOpts};
pub use cluster::{LeaseReport, LEASE_GRACE, LEASE_RENEW_INTERVAL, POD_EVICTION_GRACE};
pub use kubelet::{
    Kubelet, NodeConfig, PodEntry, ReconcileReport, RestartPolicy, DEFAULT_TERMINATION_GRACE,
    POD_INFRA_BYTES,
};
pub use metrics::{average_working_set, scrape, working_set_stddev, PodMetrics};
pub use node::{Node, NodeCondition, NodeLease};
pub use scheduler::{NodeSnapshot, Policy, Scheduler};
pub use service::{
    Admitted, BreakerState, CircuitBreaker, Completion, Endpoint, LatencyHistogram,
    ResilientClient, RetryBudget, RetryPolicy, Service, ServiceConfig, ServiceSignal, ShedReason,
    Started,
};
