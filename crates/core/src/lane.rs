//! One RPU "lane": the RPU plus its private ingress/egress links.
//!
//! [`crate::Rosebud::tick`] advances the system stage by stage, each stage
//! sweeping the lanes in ascending order. Stages 4–6 — the per-RPU link pop
//! and DMA delivery, the core/accelerator tick, and the committed-send push
//! — touch only one lane's state plus the shared slot tracker, ledger and
//! tracer, so a lane whose stages are provably the identity can be skipped
//! (quiescent-lane elision). Its quiet horizon lives in the system's dense
//! `lane_quiet` vector, not here, so the sweep decides who is awake without
//! touching a sleeping lane.

use rosebud_kernel::Serializer;

use crate::fabric::{EgressItem, IngressItem};
use crate::rpu::Rpu;

/// An RPU plus its private distribution links.
pub(crate) struct Lane {
    /// The packet-processing unit itself.
    pub rpu: Rpu,
    /// The 32 Gbps ingress link feeding this RPU's DMA engine.
    pub rin: Serializer<IngressItem>,
    /// The 32 Gbps egress link draining committed sends.
    pub rout: Serializer<EgressItem>,
}
