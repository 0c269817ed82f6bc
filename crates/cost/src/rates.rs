//! Conversion rates from physical quantities (bytes, I/O operations, time)
//! to dollar cost, plus the HDD performance constants that define the TCIO
//! unit.
//!
//! The absolute values are synthetic (the paper's rates are proprietary) but
//! are chosen from public hardware price points so that the *qualitative*
//! trade-off matches the paper: SSD bytes cost several times more than HDD
//! bytes, SSD writes incur wear-out cost, and I/O-dense jobs are cheaper on
//! SSD while large, sequential, long-lived jobs are cheaper on HDD.

/// Dollar-conversion rates and device constants used by the cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostRates {
    /// Cost of storing one byte on HDD for one second (`byte_cost^HDD`).
    pub hdd_byte_cost_per_sec: f64,
    /// Cost of storing one byte on SSD for one second (`byte_cost^SSD`).
    pub ssd_byte_cost_per_sec: f64,
    /// Network cost of transmitting one byte, device independent
    /// (`network_cost_rate`). Included so byte/server costs are not
    /// overweighted in the overall TCO, as in the paper.
    pub network_cost_per_byte: f64,
    /// Cost per second of one TCIO unit's worth of HDD *server* resources
    /// (`server_cost_rate^HDD`).
    pub hdd_server_cost_per_tcio_sec: f64,
    /// Cost per byte transmitted through SSD *servers*
    /// (`server_cost_rate^SSD`; the paper notes SSD server cost correlates
    /// with bytes transmitted).
    pub ssd_server_cost_per_byte: f64,
    /// Cost per second of one TCIO unit's worth of HDD devices
    /// (`device_cost_rate^HDD`).
    pub hdd_device_cost_per_tcio_sec: f64,
    /// SSD wear-out cost per byte written (`wearout_cost_rate^SSD`), derived
    /// from the drive's total-bytes-written rating.
    pub ssd_wearout_cost_per_byte: f64,
    /// Random operations per second one standard HDD sustains. Defines the
    /// seek/rotation component of the TCIO unit.
    pub hdd_ops_per_sec: f64,
    /// Sequential bandwidth (bytes/second) of one standard HDD. Defines the
    /// transfer component of the TCIO unit.
    pub hdd_bandwidth_bytes_per_sec: f64,
    /// Small writes are grouped into chunks of this many bytes before they
    /// reach the disks (1 MiB in the paper's system).
    pub write_coalesce_bytes: u64,
}

impl Default for CostRates {
    fn default() -> Self {
        CostRates {
            // ~ $0.03/GiB over a 5-year deployment.
            hdd_byte_cost_per_sec: 1.9e-16,
            // ~ $0.10/GiB over a 5-year deployment.
            ssd_byte_cost_per_sec: 4.5e-16,
            network_cost_per_byte: 2.0e-13,
            // ~ $600 of server amortized per HDD over 5 years.
            hdd_server_cost_per_tcio_sec: 4.0e-6,
            ssd_server_cost_per_byte: 0.7e-13,
            // ~ $300 HDD amortized over 5 years.
            hdd_device_cost_per_tcio_sec: 1.9e-6,
            // ~ $100 SSD with a 600 TBW endurance rating.
            ssd_wearout_cost_per_byte: 0.9e-13,
            hdd_ops_per_sec: 150.0,
            hdd_bandwidth_bytes_per_sec: 150.0 * 1024.0 * 1024.0,
            write_coalesce_bytes: 1024 * 1024,
        }
    }
}

impl CostRates {
    /// Validate that all rates are finite, non-negative, and the performance
    /// constants are positive.
    ///
    /// # Errors
    /// Returns a human-readable description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        let nonneg = [
            ("hdd_byte_cost_per_sec", self.hdd_byte_cost_per_sec),
            ("ssd_byte_cost_per_sec", self.ssd_byte_cost_per_sec),
            ("network_cost_per_byte", self.network_cost_per_byte),
            (
                "hdd_server_cost_per_tcio_sec",
                self.hdd_server_cost_per_tcio_sec,
            ),
            ("ssd_server_cost_per_byte", self.ssd_server_cost_per_byte),
            (
                "hdd_device_cost_per_tcio_sec",
                self.hdd_device_cost_per_tcio_sec,
            ),
            ("ssd_wearout_cost_per_byte", self.ssd_wearout_cost_per_byte),
        ];
        for (name, v) in nonneg {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{name} must be finite and non-negative, got {v}"));
            }
        }
        let positive = [
            ("hdd_ops_per_sec", self.hdd_ops_per_sec),
            (
                "hdd_bandwidth_bytes_per_sec",
                self.hdd_bandwidth_bytes_per_sec,
            ),
        ];
        for (name, v) in positive {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("{name} must be finite and positive, got {v}"));
            }
        }
        if self.write_coalesce_bytes == 0 {
            return Err("write_coalesce_bytes must be positive".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_rates_validate() {
        assert!(CostRates::default().validate().is_ok());
    }

    #[test]
    fn ssd_bytes_cost_more_than_hdd_bytes() {
        let r = CostRates::default();
        assert!(r.ssd_byte_cost_per_sec > r.hdd_byte_cost_per_sec);
    }

    #[test]
    fn validation_rejects_negative_rate() {
        let r = CostRates {
            hdd_byte_cost_per_sec: -1.0,
            ..CostRates::default()
        };
        assert!(r.validate().unwrap_err().contains("hdd_byte_cost_per_sec"));
    }

    #[test]
    fn validation_rejects_zero_hdd_ops() {
        let r = CostRates {
            hdd_ops_per_sec: 0.0,
            ..CostRates::default()
        };
        assert!(r.validate().is_err());
    }

    #[test]
    fn validation_rejects_nan_and_zero_coalesce() {
        let r = CostRates {
            network_cost_per_byte: f64::NAN,
            ..CostRates::default()
        };
        assert!(r.validate().is_err());
        let r2 = CostRates {
            write_coalesce_bytes: 0,
            ..CostRates::default()
        };
        assert!(r2.validate().is_err());
    }
}
