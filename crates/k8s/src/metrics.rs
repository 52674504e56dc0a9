//! The spread of the Kubernetes metrics-server observer's per-pod readings.
//!
//! The observer itself — per-pod cgroup working sets averaged over a
//! deployment, exactly as metrics-server reads kubelet's cAdvisor stats on
//! the paper's cluster — is [`crate::Cluster::average_working_set`], the
//! "measured by Kubernetes" number of Figs. 3 and 6; the `free(1)`
//! observer comes directly from [`simkernel::Kernel::free`].

use simkernel::{Kernel, KernelResult};

use crate::api::Deployment;

/// Standard deviation of the per-pod working sets (the paper reports the
/// deviation is "negligible at less than 0.1 MB per container").
pub fn working_set_stddev(kernel: &Kernel, deployment: &Deployment) -> KernelResult<f64> {
    let samples = deployment
        .pods
        .iter()
        .map(|p| kernel.cgroup_working_set(p.pod_cgroup).map(|ws| ws as f64))
        .collect::<KernelResult<Vec<f64>>>()?;
    if samples.len() < 2 {
        return Ok(0.0);
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let var = samples
        .iter()
        .map(|ws| {
            let d = ws - mean;
            d * d
        })
        .sum::<f64>()
        / samples.len() as f64;
    Ok(var.sqrt())
}
