// Package world builds the synthetic video-delivery universe that stands in
// for the paper's proprietary dataset: 379 content providers, 19 CDNs,
// thousands of ASNs across 213 countries, device and connectivity mixes,
// and the structural traits the paper's root-cause table (Table 3) turns on
// — single-bitrate sites, UGC providers with in-house CDNs, Asian and
// Chinese ISPs, wireless carriers, and low-priority sites sharing one
// global CDN.
//
// The world is purely structural: it says who exists and how sessions are
// attributed, not when problems happen. Problem injection lives in package
// events; metric-value synthesis lives in package synth.
package world

import (
	"fmt"

	"repro/internal/attr"
	"repro/internal/stats"
)

// Region groups countries the way the paper's analysis talks about them
// (§2: ~55% US, ~12% Europe, ~8% China; §4.3: "Asian ISPs", "Chinese ISPs").
type Region uint8

// Regions of the synthetic world.
const (
	RegionUS Region = iota
	RegionEurope
	RegionChina
	RegionAsiaOther
	RegionOther

	NumRegions = 5
)

var regionNames = [NumRegions]string{"US", "Europe", "China", "AsiaOther", "Other"}

// String returns the region name.
func (r Region) String() string {
	if int(r) < len(regionNames) {
		return regionNames[r]
	}
	return fmt.Sprintf("Region(%d)", uint8(r))
}

// regionShare is the population share of viewers per region (paper §2).
var regionShare = [NumRegions]float64{0.55, 0.12, 0.08, 0.10, 0.15}

// CDNKind classifies CDNs the way paper §2 and Table 3 do.
type CDNKind uint8

// CDN kinds.
const (
	CDNGlobal     CDNKind = iota // large third-party CDN (Akamai-like)
	CDNDatacenter                // data-center CDN
	CDNInHouse                   // run by a content provider itself
	CDNISPRun                    // operated by an ISP
)

var cdnKindNames = []string{"Global", "Datacenter", "InHouse", "ISPRun"}

// String returns the CDN kind name.
func (k CDNKind) String() string {
	if int(k) < len(cdnKindNames) {
		return cdnKindNames[k]
	}
	return fmt.Sprintf("CDNKind(%d)", uint8(k))
}

// Connection types (attr.ConnType values), annotated like the paper's
// third-party connectivity feed.
const (
	ConnDSL int32 = iota
	ConnCable
	ConnFiber
	ConnMobileWireless
	ConnFixedWireless
	ConnEthernet

	NumConnTypes = 6
)

// ConnTypeNames lists the connection-type catalog in id order.
var ConnTypeNames = []string{"DSL", "Cable", "Fiber", "MobileWireless", "FixedWireless", "Ethernet"}

// PlayerTypeNames and BrowserNames list the device catalogs (paper §2).
var (
	PlayerTypeNames = []string{"Flash", "Silverlight", "HTML5"}
	BrowserNames    = []string{"Chrome", "Firefox", "MSIE", "Safari"}
	VoDOrLiveNames  = []string{"VoD", "Live"}
)

// Config sizes the synthetic world. The defaults mirror the paper's
// population at laptop scale; NumASNs is the main scale knob (the paper saw
// 15K ASNs).
type Config struct {
	Seed         uint64
	NumSites     int
	NumCDNs      int
	NumASNs      int
	NumCountries int

	// ZipfSites and ZipfASNs set the popularity skew exponents.
	ZipfSites float64
	ZipfASNs  float64
}

// DefaultConfig returns the paper-shaped world at laptop scale.
func DefaultConfig() Config {
	return Config{
		Seed:         1,
		NumSites:     379,
		NumCDNs:      19,
		NumASNs:      400,
		NumCountries: 213,
		ZipfSites:    0.9,
		ZipfASNs:     1.0,
	}
}

// PaperScaleConfig returns the full population sizes of the paper. Traces
// at this scale are large; use for overnight runs.
func PaperScaleConfig() Config {
	c := DefaultConfig()
	c.NumASNs = 15_000
	return c
}

// Validate reports the first invalid config field.
func (c Config) Validate() error {
	switch {
	case c.NumSites < 1:
		return fmt.Errorf("world: NumSites %d < 1", c.NumSites)
	case c.NumCDNs < 2:
		return fmt.Errorf("world: NumCDNs %d < 2", c.NumCDNs)
	case c.NumASNs < 2:
		return fmt.Errorf("world: NumASNs %d < 2", c.NumASNs)
	case c.NumCountries < NumRegions:
		return fmt.Errorf("world: NumCountries %d < %d", c.NumCountries, NumRegions)
	case c.ZipfSites < 0 || c.ZipfASNs < 0:
		return fmt.Errorf("world: negative Zipf exponent")
	}
	return nil
}

// Site is one content provider ("Site" in the paper).
type Site struct {
	Name string
	// CDNIDs and CDNWeights give the provider's CDN mix; single-element
	// mixes model single-CDN providers.
	CDNIDs     []int32
	CDNWeights []float64
	// LiveFraction is the share of Live (vs VoD) sessions.
	LiveFraction float64
	// BitrateLadder lists the offered renditions in kbps, ascending.
	// Single-element ladders model the paper's "single bitrate" sites.
	BitrateLadder []float64
	// UGC marks user-generated-content providers.
	UGC bool
	// InHouseCDN marks sites that primarily serve from their own CDN.
	InHouseCDN bool
	// LowPriority marks presumably low-end providers whose traffic a
	// shared global CDN deprioritises (the paper's join-failure anecdote).
	LowPriority bool
	// PlayerWeights is the per-site player mix (some sites are Flash-only
	// and so on).
	PlayerWeights []float64

	cdnCum    []float64
	playerCum []float64
}

// SingleBitrate reports whether the site offers exactly one rendition.
func (s *Site) SingleBitrate() bool { return len(s.BitrateLadder) == 1 }

// CDN is one content delivery network.
type CDN struct {
	Name string
	Kind CDNKind
	// OwnerSite is the site owning an in-house CDN, or -1.
	OwnerSite int32
}

// ASN is one autonomous system.
type ASN struct {
	Name    string
	Country int32
	Region  Region
	// Wireless marks mobile carriers.
	Wireless bool
	// ConnMix is the distribution over connection types for this ASN's
	// clients.
	ConnMix []float64

	connCum []float64
}

// Country is one viewer country.
type Country struct {
	Name   string
	Region Region
}

// World is the assembled universe. It is immutable after New and safe for
// concurrent readers.
type World struct {
	Config Config

	Sites     []Site
	CDNs      []CDN
	ASNs      []ASN
	Countries []Country

	space    *attr.Space
	siteZipf *stats.Zipf
	asnZipf  *stats.Zipf
	// browserCum is the global browser mix.
	browserCum []float64
	// marginals holds empirical per-dimension value shares, estimated once
	// at construction by Monte Carlo over SampleAttrs. Event generation
	// uses them to bound how much of an epoch a single anchor can touch.
	marginals [attr.NumDims][]float64
}

// standard bitrate ladders (kbps); index chosen per site.
var ladders = [][]float64{
	{235, 375, 560, 750, 1050, 1750, 2350, 3000, 4300},
	{375, 560, 750, 1400, 2350, 3000},
	{300, 700, 1500, 2500},
	{560, 1050, 1750, 3000, 4300, 6000},
}

// New builds a world from the config. Construction is deterministic in
// Config.Seed.
func New(cfg Config) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed).Split(0x77_0801)
	w := &World{Config: cfg}

	w.buildCountries(rng.Split(1))
	w.buildCDNs(rng.Split(2))
	w.buildSites(rng.Split(3))
	w.buildASNs(rng.Split(4))
	if err := w.buildSpace(); err != nil {
		return nil, err
	}

	var err error
	if w.siteZipf, err = stats.NewZipf(cfg.NumSites, cfg.ZipfSites); err != nil {
		return nil, err
	}
	if w.asnZipf, err = stats.NewZipf(cfg.NumASNs, cfg.ZipfASNs); err != nil {
		return nil, err
	}
	if w.browserCum, err = stats.CumWeights([]float64{0.42, 0.22, 0.20, 0.16}); err != nil {
		return nil, err
	}
	w.estimateMarginals()
	return w, nil
}

// estimateMarginals samples the attribute distribution to record each
// value's population share per dimension.
func (w *World) estimateMarginals() {
	cards := [attr.NumDims]int{
		len(w.ASNs), len(w.CDNs), len(w.Sites),
		len(VoDOrLiveNames), len(PlayerTypeNames), len(BrowserNames), NumConnTypes,
	}
	for d := attr.Dim(0); d < attr.NumDims; d++ {
		w.marginals[d] = make([]float64, cards[d])
	}
	const samples = 20000
	r := stats.NewRNG(w.Config.Seed).Split(0x3A26)
	for i := 0; i < samples; i++ {
		v := w.SampleAttrs(r)
		for d := attr.Dim(0); d < attr.NumDims; d++ {
			w.marginals[d][v[d]]++
		}
	}
	for d := attr.Dim(0); d < attr.NumDims; d++ {
		for i := range w.marginals[d] {
			w.marginals[d][i] /= samples
		}
	}
}

// marginalShare returns the estimated fraction of sessions carrying value
// id on dimension d.
func (w *World) marginalShare(d attr.Dim, id int32) float64 {
	if int(d) >= len(w.marginals) || id < 0 || int(id) >= len(w.marginals[d]) {
		return 0
	}
	return w.marginals[d][id]
}

// KeyShare estimates the fraction of sessions matching key k under an
// independence approximation across dimensions.
func (w *World) KeyShare(k attr.Key) float64 {
	share := 1.0
	for _, d := range k.Mask.Dims() {
		share *= w.marginalShare(d, k.Vals[d])
	}
	return share
}

func (w *World) buildCountries(rng *stats.RNG) {
	n := w.Config.NumCountries
	w.Countries = make([]Country, n)
	// Fixed flagship countries per region, remainder distributed.
	fixed := []Region{RegionUS, RegionChina, RegionEurope, RegionEurope, RegionEurope,
		RegionAsiaOther, RegionAsiaOther, RegionOther, RegionOther, RegionOther}
	for i := range w.Countries {
		var reg Region
		if i < len(fixed) {
			reg = fixed[i]
		} else {
			// Weighted by how many countries each region plausibly has.
			reg = Region(stats.WeightedChoice(rng, []float64{0.01, 0.20, 0.005, 0.25, 0.53}))
		}
		w.Countries[i] = Country{Name: fmt.Sprintf("country-%03d", i), Region: reg}
	}
}

func (w *World) buildCDNs(rng *stats.RNG) {
	n := w.Config.NumCDNs
	w.CDNs = make([]CDN, n)
	for i := range w.CDNs {
		kind := CDNGlobal
		switch {
		case i == 0 || i == 1: // the big global CDNs
			kind = CDNGlobal
		case i < 5:
			kind = CDNDatacenter
		case float64(i) < 0.55*float64(n):
			kind = CDNGlobal
		case float64(i) < 0.8*float64(n):
			kind = CDNISPRun
		default:
			kind = CDNInHouse
		}
		w.CDNs[i] = CDN{
			Name:      fmt.Sprintf("cdn-%02d", i),
			Kind:      kind,
			OwnerSite: -1,
		}
	}
	_ = rng
}

func (w *World) buildSites(rng *stats.RNG) {
	n := w.Config.NumSites
	w.Sites = make([]Site, n)
	inHouse := w.cdnIDsOfKind(CDNInHouse)
	nonInHouse := w.cdnIDsOfKindNot(CDNInHouse)
	for i := range w.Sites {
		r := rng.Split(uint64(i))
		s := Site{
			Name:         fmt.Sprintf("site-%03d", i),
			LiveFraction: 0.05 + 0.25*r.Beta(1.2, 4),
		}
		// Content class: ~12% UGC, ~6% single-bitrate, ~4% low-priority.
		// The single-bitrate and low-priority traits skip the head of the
		// popularity ranking: top providers run full ladders on first-tier
		// CDN contracts, and a top site with a sub-threshold ladder would
		// dominate the global bitrate problem ratio.
		s.UGC = r.Bool(0.12)
		single := i >= 30 && r.Bool(0.07)
		s.LowPriority = i >= 15 && i < 200 && r.Bool(0.05)

		// Bitrate ladder.
		if single {
			// Single-bitrate sites serve one mid-to-low rendition; many of
			// them sit below decent HD, per the paper's Table 3.
			opts := []float64{500, 560, 800, 1200}
			s.BitrateLadder = []float64{opts[r.Intn(len(opts))]}
		} else {
			s.BitrateLadder = ladders[r.Intn(len(ladders))]
		}

		// CDN mix. Some sites run their content off an in-house CDN; some
		// low-priority sites share the same single global CDN (cdn-00);
		// the rest use one to three third-party CDNs.
		switch {
		case len(inHouse) > 0 && s.UGC && !s.LowPriority && r.Bool(0.5):
			s.InHouseCDN = true
			cdn := inHouse[r.Intn(len(inHouse))]
			s.CDNIDs = []int32{cdn}
			s.CDNWeights = []float64{1}
			if w.CDNs[cdn].OwnerSite < 0 {
				w.CDNs[cdn].OwnerSite = int32(i)
			}
		case s.LowPriority:
			s.CDNIDs = []int32{0}
			s.CDNWeights = []float64{1}
		default:
			k := 1 + r.Intn(3)
			perm := r.Perm(len(nonInHouse))
			for j := 0; j < k; j++ {
				s.CDNIDs = append(s.CDNIDs, nonInHouse[perm[j]])
				s.CDNWeights = append(s.CDNWeights, 0.2+r.Float64())
			}
		}

		// Player mix: mostly Flash-era with HTML5 ramping; some sites are
		// single-player.
		switch {
		case r.Bool(0.1):
			s.PlayerWeights = []float64{1, 0, 0} // Flash only
		case r.Bool(0.05):
			s.PlayerWeights = []float64{0, 0, 1} // HTML5 only
		default:
			s.PlayerWeights = []float64{0.55 + 0.2*r.Float64(), 0.1 + 0.1*r.Float64(), 0.2 + 0.2*r.Float64()}
		}

		var err error
		if s.cdnCum, err = stats.CumWeights(s.CDNWeights); err != nil {
			panic(fmt.Sprintf("world: site %d cdn weights: %v", i, err))
		}
		if s.playerCum, err = stats.CumWeights(s.PlayerWeights); err != nil {
			panic(fmt.Sprintf("world: site %d player weights: %v", i, err))
		}
		w.Sites[i] = s
	}
}

func (w *World) buildASNs(rng *stats.RNG) {
	n := w.Config.NumASNs
	w.ASNs = make([]ASN, n)
	// Countries by region for assignment.
	byRegion := make([][]int32, NumRegions)
	for i, c := range w.Countries {
		byRegion[c.Region] = append(byRegion[c.Region], int32(i))
	}
	for i := range w.ASNs {
		r := rng.Split(uint64(i))
		reg := Region(stats.WeightedChoice(r, regionShare[:]))
		countries := byRegion[reg]
		if len(countries) == 0 {
			countries = []int32{0}
		}
		a := ASN{
			Name:     fmt.Sprintf("AS%d", 1000+i),
			Country:  countries[r.Intn(len(countries))],
			Region:   reg,
			Wireless: r.Bool(0.18),
		}
		a.ConnMix = connMix(r, reg, a.Wireless)
		var err error
		if a.connCum, err = stats.CumWeights(a.ConnMix); err != nil {
			panic(fmt.Sprintf("world: asn %d conn mix: %v", i, err))
		}
		w.ASNs[i] = a
	}
}

// connMix returns the connection-type distribution for an ASN.
func connMix(r *stats.RNG, reg Region, wireless bool) []float64 {
	if wireless {
		return []float64{0.02, 0.02, 0.01, 0.85, 0.08, 0.02}
	}
	mix := make([]float64, NumConnTypes)
	switch reg {
	case RegionUS:
		copy(mix, []float64{0.22, 0.38, 0.14, 0.08, 0.04, 0.14})
	case RegionEurope:
		copy(mix, []float64{0.38, 0.22, 0.16, 0.08, 0.04, 0.12})
	case RegionChina, RegionAsiaOther:
		copy(mix, []float64{0.34, 0.12, 0.22, 0.14, 0.08, 0.10})
	default:
		copy(mix, []float64{0.36, 0.16, 0.06, 0.22, 0.12, 0.08})
	}
	// Mild per-ASN perturbation so ASNs are not identical.
	for i := range mix {
		mix[i] *= 0.7 + 0.6*r.Float64()
	}
	return mix
}

func (w *World) cdnIDsOfKind(k CDNKind) []int32 {
	var out []int32
	for i := range w.CDNs {
		if w.CDNs[i].Kind == k {
			out = append(out, int32(i))
		}
	}
	return out
}

func (w *World) cdnIDsOfKindNot(k CDNKind) []int32 {
	var out []int32
	for i := range w.CDNs {
		if w.CDNs[i].Kind != k {
			out = append(out, int32(i))
		}
	}
	return out
}

func (w *World) buildSpace() error {
	names := map[attr.Dim][]string{
		attr.VoDOrLive:  VoDOrLiveNames,
		attr.PlayerType: PlayerTypeNames,
		attr.Browser:    BrowserNames,
		attr.ConnType:   ConnTypeNames,
	}
	siteNames := make([]string, len(w.Sites))
	for i := range w.Sites {
		siteNames[i] = w.Sites[i].Name
	}
	cdnNames := make([]string, len(w.CDNs))
	for i := range w.CDNs {
		cdnNames[i] = w.CDNs[i].Name
	}
	asnNames := make([]string, len(w.ASNs))
	for i := range w.ASNs {
		asnNames[i] = w.ASNs[i].Name
	}
	names[attr.Site] = siteNames
	names[attr.CDN] = cdnNames
	names[attr.ASN] = asnNames
	space, err := attr.NewSpace(names)
	if err != nil {
		return err
	}
	w.space = space
	return nil
}

// Space returns the attribute catalog of the world.
func (w *World) Space() *attr.Space { return w.space }

// SampleAttrs draws one session's attribute vector. The draw is independent
// across calls given the RNG stream.
func (w *World) SampleAttrs(r *stats.RNG) attr.Vector {
	var v attr.Vector
	siteID := w.siteZipf.Sample(r)
	site := &w.Sites[siteID]
	asnID := w.asnZipf.Sample(r)
	asn := &w.ASNs[asnID]

	v[attr.Site] = int32(siteID)
	v[attr.ASN] = int32(asnID)
	v[attr.CDN] = site.CDNIDs[stats.SampleCum(r, site.cdnCum)]
	if r.Bool(site.LiveFraction) {
		v[attr.VoDOrLive] = 1
	}
	v[attr.PlayerType] = int32(stats.SampleCum(r, site.playerCum))
	v[attr.Browser] = int32(stats.SampleCum(r, w.browserCum))
	v[attr.ConnType] = int32(stats.SampleCum(r, asn.connCum))
	return v
}

// ASNsWhere returns ASN ids satisfying pred, most popular first (ids are
// popularity-ranked by construction).
func (w *World) ASNsWhere(pred func(*ASN) bool) []int32 {
	var out []int32
	for i := range w.ASNs {
		if pred(&w.ASNs[i]) {
			out = append(out, int32(i))
		}
	}
	return out
}

// SitesWhere returns site ids satisfying pred, most popular first.
func (w *World) SitesWhere(pred func(*Site) bool) []int32 {
	var out []int32
	for i := range w.Sites {
		if pred(&w.Sites[i]) {
			out = append(out, int32(i))
		}
	}
	return out
}

// CDNsWhere returns CDN ids satisfying pred.
func (w *World) CDNsWhere(pred func(*CDN) bool) []int32 {
	var out []int32
	for i := range w.CDNs {
		if pred(&w.CDNs[i]) {
			out = append(out, int32(i))
		}
	}
	return out
}
