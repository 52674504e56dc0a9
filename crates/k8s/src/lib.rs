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
//! * [`Cluster::average_working_set`] — the metrics-server reading
//!   per-pod cgroup working sets ("measured by Kubernetes", Figs. 3 and 6);
//! * [`simkernel::Kernel::free`] — the system-wide `free(1)` reading
//!   ("measured by the OS", Figs. 4, 5 and 7), which also sees shim
//!   processes, daemon growth, kernel overhead and the page cache.

#![forbid(unsafe_code)]
#![allow(
    clippy::disallowed_types,
    reason = "ShedReason is this crate's: clippy.toml keeps it out of the others"
)]

pub(crate) mod api;
pub(crate) mod cluster;
pub(crate) mod kubelet;
pub(crate) mod metrics;
pub(crate) mod node;
pub(crate) mod scheduler;
pub mod service;

pub use api::{
    Deployment, DeploymentController, DeploymentSpec, HpaSpec, PodPhase, ProbeSpec, RolloutStep,
};
pub use cluster::{
    Cluster, ClusterStats, DeployOpts, LEASE_GRACE, LEASE_RENEW_INTERVAL, POD_EVICTION_GRACE,
};
pub use kubelet::{NodeConfig, ReconcileReport, RestartPolicy};
pub use metrics::working_set_stddev;
pub use node::{Node, NodeCondition};
pub use scheduler::{Policy, Scheduler};
pub use service::{
    LatencyHistogram, ResilientClient, RetryBudget, RetryPolicy, Service, ServiceConfig,
};
