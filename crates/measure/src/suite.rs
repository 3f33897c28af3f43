//! The device-campaign measurement suite — Table 1 of the paper.

/// One kind of network measurement the AmiGo-style endpoint runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum MeasurementKind {
    /// Ookla speedtest near the public-IP geolocation.
    Speedtest,
    /// `mtr` traceroutes to Google / Facebook / YouTube.
    Traceroute,
    /// jquery.min.js download from five CDN providers.
    Cdn,
    /// Resolver discovery and lookup timing via NextDNS.
    Dns,
    /// YouTube stats-for-nerds while playing a 4K video.
    YouTube,
}

impl MeasurementKind {
    /// All kinds, in the table's row order.
    pub const ALL: [MeasurementKind; 5] = [
        MeasurementKind::Speedtest,
        MeasurementKind::Traceroute,
        MeasurementKind::Cdn,
        MeasurementKind::Dns,
        MeasurementKind::YouTube,
    ];

    /// Table 1 "Description" column.
    #[must_use]
    pub(crate) fn description(&self) -> &'static str {
        match self {
            MeasurementKind::Speedtest => "Speedtest to an Ookla server near user's IP-geolocation",
            MeasurementKind::Traceroute => "Traceroute to Google/Facebook/YouTube via mtr",
            MeasurementKind::Cdn => "Download jquery.min.js (v3.6.0) from different CDN providers",
            MeasurementKind::Dns => "Retrieve the current DNS resolver via NextDNS",
            MeasurementKind::YouTube => {
                "Collect video-streaming info from YouTube's stats-for-nerds while playing 4K video"
            }
        }
    }

    /// Table 1 "Visibility" column.
    #[must_use]
    pub fn visibility(&self) -> &'static str {
        match self {
            MeasurementKind::Speedtest => "Latency, Down/Up Bandwidth",
            MeasurementKind::Traceroute => "Latency, Network Path",
            MeasurementKind::Cdn => "Download Speed, DNS lookup time",
            MeasurementKind::Dns => "DNS resolver",
            MeasurementKind::YouTube => "Video Resolution, Buffer Occupancy",
        }
    }

    /// Row label.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            MeasurementKind::Speedtest => "Speedtest",
            MeasurementKind::Traceroute => "Traceroute",
            MeasurementKind::Cdn => "CDN",
            MeasurementKind::Dns => "DNS",
            MeasurementKind::YouTube => "YouTube",
        }
    }
}

/// Render Table 1 as an aligned text table.
#[must_use]
pub fn measurement_suite() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:<72} {}\n",
        "Measurement", "Description", "Visibility"
    ));
    for k in MeasurementKind::ALL {
        out.push_str(&format!(
            "{:<12} {:<72} {}\n",
            k.name(),
            k.description(),
            k.visibility()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_all_five_rows() {
        let t = measurement_suite();
        assert_eq!(t.lines().count(), 6);
        for k in MeasurementKind::ALL {
            assert!(t.contains(k.name()));
            assert!(t.contains(k.visibility()));
        }
    }

    #[test]
    fn descriptions_match_paper_wording() {
        assert!(MeasurementKind::Cdn.description().contains("jquery.min.js"));
        assert!(MeasurementKind::Dns.description().contains("NextDNS"));
        assert!(MeasurementKind::YouTube
            .visibility()
            .contains("Buffer Occupancy"));
    }
}
