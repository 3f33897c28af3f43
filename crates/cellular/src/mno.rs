//! Mobile Network Operators and their subscriber policies.
//!
//! The paper's throughput takeaway is blunt: "network throughput for roaming
//! eSIMs is largely contingent upon the policies of the v-MNO, rather than
//! the specific roaming topology chosen" (§1). So policy is a first-class
//! object here: every operator carries a [`BandwidthPolicy`] per
//! [`SubscriberClass`], plus an optional per-service cap modelling the
//! YouTube traffic differentiation conjectured in §5.2.

use crate::ident::Plmn;
use roam_geo::Country;
use roam_netsim::Asn;

/// Index of an operator in a [`MnoDirectory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MnoId(pub u32);

/// How an operator treats a class of subscribers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubscriberClass {
    /// The operator's own customers.
    Native,
    /// Inbound roamers (subscribers of a foreign b-MNO).
    InboundRoamer,
}

/// Downlink/uplink policy rates enforced at the packet gateway / RAN
/// scheduler for one subscriber class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthPolicy {
    /// Downlink rate, Mbps.
    pub down_mbps: f64,
    /// Uplink rate, Mbps.
    pub up_mbps: f64,
}

impl BandwidthPolicy {
    /// Convenience constructor.
    #[must_use]
    pub fn new(down_mbps: f64, up_mbps: f64) -> Self {
        assert!(
            down_mbps > 0.0 && up_mbps > 0.0,
            "policy rates must be positive"
        );
        BandwidthPolicy { down_mbps, up_mbps }
    }
}

/// A mobile network operator.
#[derive(Debug, Clone)]
pub struct Mno {
    /// Operator name as it appears on the phone's status bar.
    pub name: String,
    /// Home country.
    pub country: Country,
    /// The operator's PLMN (what MCC-MNC in APN settings reveals, §3.1).
    pub plmn: Plmn,
    /// The AS the operator announces its address space from.
    pub asn: Asn,
    /// For MVNOs: the parent MNO whose RAN/core they ride. The Korean
    /// physical SIM in the paper (U+ UMobile on LG U+) is such a case, and
    /// shows different routing than the parent (§4.3.2).
    pub parent: Option<MnoId>,
    /// Policy for the operator's own subscribers.
    pub native_policy: BandwidthPolicy,
    /// Policy for inbound roamers — usually tighter, and the paper's
    /// explanation for slow roaming eSIMs.
    pub roamer_policy: BandwidthPolicy,
    /// Optional cap applied to video streaming traffic regardless of class
    /// (§5.2: HR eSIMs and local SIMs both pinned at 720p in PAK/ARE,
    /// "their b-MNOs may implement traffic differentiation, constraining
    /// bandwidth for YouTube").
    pub youtube_cap_mbps: Option<f64>,
    /// Characteristic end-to-end loss rate of the operator's access network
    /// (feeds the Mathis cap in the throughput model).
    pub access_loss: f64,
}

impl Mno {
    /// The policy applied to a subscriber class.
    #[must_use]
    pub fn policy(&self, class: SubscriberClass) -> BandwidthPolicy {
        match class {
            SubscriberClass::Native => self.native_policy,
            SubscriberClass::InboundRoamer => self.roamer_policy,
        }
    }

    /// Is this operator an MVNO?
    #[must_use]
    pub fn is_mvno(&self) -> bool {
        self.parent.is_some()
    }
}

/// The directory of operators in a scenario.
#[derive(Debug, Default)]
pub struct MnoDirectory {
    mnos: Vec<Mno>,
}

impl MnoDirectory {
    /// An empty directory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an operator, returning its id.
    pub fn add(&mut self, mno: Mno) -> MnoId {
        assert!(
            self.find_by_plmn(mno.plmn).is_none(),
            "duplicate PLMN {} for {}",
            mno.plmn,
            mno.name
        );
        if let Some(parent) = mno.parent {
            assert!(
                (parent.0 as usize) < self.mnos.len(),
                "MVNO parent must exist first"
            );
        }
        let id = MnoId(self.mnos.len() as u32);
        self.mnos.push(mno);
        id
    }

    /// Operator by id.
    #[must_use]
    pub fn get(&self, id: MnoId) -> &Mno {
        &self.mnos[id.0 as usize]
    }

    /// Find an operator by PLMN — the identification step of the web
    /// campaign ("its b-MNO as the MCC-MNC codes from the Access Point
    /// Name", §3.1).
    #[must_use]
    pub(crate) fn find_by_plmn(&self, plmn: Plmn) -> Option<MnoId> {
        self.mnos
            .iter()
            .position(|m| m.plmn == plmn)
            .map(|i| MnoId(i as u32))
    }

    /// Iterate over `(id, operator)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (MnoId, &Mno)> {
        self.mnos
            .iter()
            .enumerate()
            .map(|(i, m)| (MnoId(i as u32), m))
    }

    /// Number of operators.
    #[must_use]
    pub fn len(&self) -> usize {
        self.mnos.len()
    }

    /// Is the directory empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.mnos.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn play() -> Mno {
        Mno {
            name: "Play".into(),
            country: Country::POL,
            plmn: Plmn::new(260, 6, 2),
            asn: Asn(12912),
            parent: None,
            native_policy: BandwidthPolicy::new(80.0, 30.0),
            roamer_policy: BandwidthPolicy::new(12.0, 8.0),
            youtube_cap_mbps: None,
            access_loss: 0.001,
        }
    }

    #[test]
    fn policy_selection_by_class() {
        let m = play();
        assert_eq!(m.policy(SubscriberClass::Native).down_mbps, 80.0);
        assert_eq!(m.policy(SubscriberClass::InboundRoamer).down_mbps, 12.0);
        assert!(!m.is_mvno());
    }

    #[test]
    fn directory_lookup_by_plmn() {
        let mut dir = MnoDirectory::new();
        let id = dir.add(play());
        assert_eq!(dir.find_by_plmn(Plmn::new(260, 6, 2)), Some(id));
        assert_eq!(dir.find_by_plmn(Plmn::new(260, 1, 2)), None);
        assert_eq!(dir.get(id).country, Country::POL);
        assert_eq!(dir.len(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate PLMN")]
    fn duplicate_plmn_rejected() {
        let mut dir = MnoDirectory::new();
        dir.add(play());
        dir.add(play());
    }

    #[test]
    fn mvno_references_parent() {
        let mut dir = MnoDirectory::new();
        let parent = dir.add(play());
        let mut mvno = play();
        mvno.name = "Virtual-on-Play".into();
        mvno.plmn = Plmn::new(260, 45, 2);
        mvno.parent = Some(parent);
        let id = dir.add(mvno);
        assert!(dir.get(id).is_mvno());
    }

    #[test]
    #[should_panic(expected = "parent must exist")]
    fn mvno_with_dangling_parent_rejected() {
        let mut dir = MnoDirectory::new();
        let mut mvno = play();
        mvno.parent = Some(MnoId(7));
        dir.add(mvno);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_policy_rejected() {
        let _ = BandwidthPolicy::new(0.0, 5.0);
    }
}
