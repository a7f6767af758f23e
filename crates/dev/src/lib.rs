//! Device models for the `switchless` machine.
//!
//! The paper's §2 use cases revolve around I/O devices that notify
//! software by **writing memory** (which the generalized `monitor`
//! observes) instead of raising interrupts:
//!
//! * [`nic`] — a NIC with an RX descriptor ring: packet arrival DMAs the
//!   payload and descriptor, then bumps the ring tail word that an I/O
//!   thread `mwait`s on (§2 "Fast I/O without Inefficient Polling").
//! * [`ssd`] — an NVMe-style SSD: submissions complete after a modeled
//!   device latency by DMA-writing a completion entry and bumping the
//!   completion-queue tail.
//! * [`timer`] — the per-core APIC timer, §2-style: "the timer in the
//!   local APIC writes to the memory address that its target hardware
//!   thread is waiting on".
//! * [`msix`] — the legacy-device bridge: §4 requires hardware to
//!   "translate external interrupts to memory writes (similar to PCIe
//!   MSI-x functionality)".
//! * [`fabric`] — a network fabric model used by the distributed-runtime
//!   experiments: remote RPCs complete by DMA after a round-trip latency.
//!
//! All devices drive the machine exclusively through its public host API
//! (scheduled host code — a registered handler queued with
//! [`switchless_core::Machine::at_device`], as the NIC RX path and the
//! timer use, or a [`switchless_core::Machine::at`] closure — and
//! [`switchless_core::Machine::dma_write`]), exactly as external agents
//! should: the only effect a device has on a CPU is a memory write.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fabric;
pub mod msix;
pub mod nic;
pub mod ssd;
pub mod timer;

pub use fabric::Fabric;
pub use nic::{Nic, NicConfig, RX_DESC_BYTES};
pub use ssd::{Ssd, SsdConfig};
pub use timer::ApicTimer;
