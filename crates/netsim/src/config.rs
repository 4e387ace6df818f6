//! Switch and simulation configuration.

use crate::units::Rate;

/// Static configuration of the simulated switch.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of ports. Each port is both an ingress and an egress.
    pub num_ports: usize,
    /// Queues per egress port (the paper's scenario uses 2).
    pub queues_per_port: usize,
    /// Total shared buffer, in packets.
    pub buffer_packets: u32,
    /// Egress line rate of every port.
    pub port_rate: Rate,
    /// Fixed packet size in bytes (packet-granular model).
    pub packet_bytes: u32,
}

impl SimConfig {
    /// The default evaluation switch: 8 ports × 2 queues = 16 queues,
    /// matching the 16-queue windows of the paper's Fig. 3.
    pub fn paper_default() -> SimConfig {
        SimConfig {
            num_ports: 8,
            queues_per_port: 2,
            buffer_packets: 520,
            port_rate: Rate::gbps(1),
            packet_bytes: 1500,
        }
    }

    /// A small 4-port switch for examples and fast tests.
    pub fn small() -> SimConfig {
        SimConfig {
            num_ports: 4,
            queues_per_port: 2,
            buffer_packets: 260,
            ..SimConfig::paper_default()
        }
    }

    /// Total number of queues in the switch.
    pub fn num_queues(&self) -> usize {
        self.num_ports * self.queues_per_port
    }

    /// Time to transmit one (fixed-size) packet on an egress port.
    pub fn pkt_tx_time(&self) -> crate::units::Duration {
        self.port_rate.tx_time(self.packet_bytes)
    }

    /// Packet service rate per port, in packets per millisecond (rounded
    /// down). With the paper-like defaults (1 Gbps, 1500 B) this is ≈83,
    /// close to the "≈90 time steps in 1 ms" the paper cites.
    pub fn pkts_per_ms(&self) -> u64 {
        crate::units::NANOS_PER_MILLI / self.pkt_tx_time().as_nanos()
    }

    /// Basic sanity checks; call before building a [`crate::Simulation`].
    pub fn validate(&self) -> Result<(), String> {
        if self.num_ports == 0 {
            return Err("num_ports must be positive".into());
        }
        if self.queues_per_port == 0 {
            return Err("queues_per_port must be positive".into());
        }
        if self.buffer_packets == 0 {
            return Err("buffer_packets must be positive".into());
        }
        if self.packet_bytes == 0 {
            return Err("packet_bytes must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_fig3_shape() {
        let c = SimConfig::paper_default();
        assert_eq!(c.num_queues(), 16);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn pkts_per_ms_near_paper_claim() {
        let c = SimConfig::paper_default();
        // ≈90 packet time-steps per ms in the paper; 83 with 1G/1500B.
        assert!((80..=100).contains(&c.pkts_per_ms()), "{}", c.pkts_per_ms());
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        let mut c = SimConfig::small();
        c.num_ports = 0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::small();
        c.buffer_packets = 0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::small();
        c.queues_per_port = 0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::small();
        c.packet_bytes = 0;
        assert!(c.validate().is_err());
    }
}
