//! The MNA taxonomy of Fig. 2: who runs which part of the network.
//!
//! The figure's grid has three global-service rows (sales, core network,
//! radio access network) and five columns (traditional MNO, roaming MNO
//! subscriber, light MNA, thick MNA, full MNA). The paper's definitional
//! contribution is the *thick* column: the MNA runs sales **and a limited
//! part of the core** (the internet gateway), while RAN and the rest of the
//! core still belong to the b-/v-MNOs.

/// A row of Fig. 2: a function someone has to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum NetworkRole {
    /// Customer acquisition, plans, billing.
    Sales,
    /// The mobile core (session management, gateways…).
    CoreNetwork,
    /// Towers and spectrum.
    RadioAccess,
}

impl NetworkRole {
    /// All roles, in the paper's row order.
    pub const ALL: [NetworkRole; 3] = [
        NetworkRole::Sales,
        NetworkRole::CoreNetwork,
        NetworkRole::RadioAccess,
    ];

    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            NetworkRole::Sales => "Sales",
            NetworkRole::CoreNetwork => "Core Network",
            NetworkRole::RadioAccess => "Radio Access Network",
        }
    }
}

/// Who runs a role for a given operating model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RoleOwner {
    /// The (single) traditional operator.
    Mno,
    /// The operator that issued the profile.
    BMno,
    /// The operator whose RAN serves the user.
    VMno,
    /// The aggregator itself.
    Mna,
    /// Split: the aggregator runs part (the internet gateway), the b-MNO
    /// runs the rest — the thick-MNA core row.
    MnaAndBMno,
}

impl RoleOwner {
    /// Display label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            RoleOwner::Mno => "MNO",
            RoleOwner::BMno => "b-MNO",
            RoleOwner::VMno => "v-MNO",
            RoleOwner::Mna => "MNA",
            RoleOwner::MnaAndBMno => "MNA + b-MNO",
        }
    }
}

/// The MNA flavours of the paper (plus the two non-MNA baselines that
/// complete the figure).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum MnaFlavor {
    /// A classical operator serving its own customer at home.
    TraditionalMno,
    /// A classical operator's customer roaming abroad.
    RoamingMno,
    /// Light MNA: sales only, everything else from the b-/v-MNOs
    /// (Google Fi's model, per the MNA taxonomy paper).
    Light,
    /// Thick MNA: sales plus a limited core function — the internet
    /// gateway. **Airalo's model, first documented by this paper.**
    Thick,
    /// Full MNA: sales and a full core deployment, direct IPX access for
    /// roaming-hub service (Twilio/Truphone's model).
    Full,
}

impl MnaFlavor {
    /// All flavours, in the paper's column order.
    pub const ALL: [MnaFlavor; 5] = [
        MnaFlavor::TraditionalMno,
        MnaFlavor::RoamingMno,
        MnaFlavor::Light,
        MnaFlavor::Thick,
        MnaFlavor::Full,
    ];

    /// Column heading.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            MnaFlavor::TraditionalMno => "Traditional MNO",
            MnaFlavor::RoamingMno => "MNO (roaming)",
            MnaFlavor::Light => "Light MNA",
            MnaFlavor::Thick => "Thick MNA",
            MnaFlavor::Full => "Full MNA",
        }
    }

    /// Who runs `role` under this model — the cell content of Fig. 2.
    #[must_use]
    pub fn owner(&self, role: NetworkRole) -> RoleOwner {
        use MnaFlavor::*;
        use NetworkRole::*;
        match (self, role) {
            (TraditionalMno, _) => RoleOwner::Mno,
            (RoamingMno, Sales | CoreNetwork) => RoleOwner::Mno,
            (RoamingMno, RadioAccess) => RoleOwner::VMno,
            (Light | Thick | Full, Sales) => RoleOwner::Mna,
            (Light, CoreNetwork) => RoleOwner::BMno,
            (Thick, CoreNetwork) => RoleOwner::MnaAndBMno,
            (Full, CoreNetwork) => RoleOwner::Mna,
            (Light | Thick, RadioAccess) => RoleOwner::VMno,
            (Full, RadioAccess) => RoleOwner::VMno,
        }
    }
}

/// Render the Fig. 2 grid as an aligned text table.
#[must_use]
pub fn taxonomy_table() -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<24}", "Role"));
    for f in MnaFlavor::ALL {
        out.push_str(&format!("{:<18}", f.name()));
    }
    out.push('\n');
    for role in NetworkRole::ALL {
        out.push_str(&format!("{:<24}", role.name()));
        for f in MnaFlavor::ALL {
            out.push_str(&format!("{:<18}", f.owner(role).label()));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thick_mna_splits_the_core() {
        assert_eq!(
            MnaFlavor::Thick.owner(NetworkRole::CoreNetwork),
            RoleOwner::MnaAndBMno
        );
        assert_eq!(MnaFlavor::Thick.owner(NetworkRole::Sales), RoleOwner::Mna);
        assert_eq!(
            MnaFlavor::Thick.owner(NetworkRole::RadioAccess),
            RoleOwner::VMno
        );
    }

    #[test]
    fn light_runs_no_core_full_runs_all_core() {
        assert_eq!(
            MnaFlavor::Full.owner(NetworkRole::CoreNetwork),
            RoleOwner::Mna
        );
        assert_eq!(
            MnaFlavor::Light.owner(NetworkRole::CoreNetwork),
            RoleOwner::BMno
        );
    }

    #[test]
    fn traditional_mno_runs_everything() {
        for role in NetworkRole::ALL {
            assert_eq!(MnaFlavor::TraditionalMno.owner(role), RoleOwner::Mno);
        }
    }

    #[test]
    fn every_mna_flavor_outsources_the_ran() {
        for f in [MnaFlavor::Light, MnaFlavor::Thick, MnaFlavor::Full] {
            assert_eq!(f.owner(NetworkRole::RadioAccess), RoleOwner::VMno);
        }
    }

    #[test]
    fn table_contains_all_headings_and_cells() {
        let t = taxonomy_table();
        for f in MnaFlavor::ALL {
            assert!(t.contains(f.name()), "missing column {}", f.name());
        }
        for r in NetworkRole::ALL {
            assert!(t.contains(r.name()), "missing row {}", r.name());
        }
        assert!(
            t.contains("MNA + b-MNO"),
            "the thick core cell is the point of the figure"
        );
        assert_eq!(t.lines().count(), 4);
    }
}
