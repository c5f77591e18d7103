package core

import (
	"fmt"
	"testing"

	"hslb/internal/cesm"
	"hslb/internal/perf"
)

// knownFits are the 1° models experiments.FitModels(Res1Deg, seed) fitted
// for the seeds below, written out with strconv's shortest exact form, so a
// later change to the fit cannot make a row's defect disappear.
var knownFits = map[int]map[cesm.Component]perf.Model{
	1: {
		cesm.ATM: {A: 27478.532797873148, B: 0.0012509082483220099, C: 1, D: 43.04355510212233},
		cesm.OCN: {A: 7590.82491877249, B: 0, C: 3, D: 42.7718266477837},
		cesm.ICE: {A: 7915.908898030537, B: 0, C: 1, D: 12.782387478757988},
		cesm.LND: {A: 1489.5994520421561, B: 1.6698596702581335e-10, C: 3, D: 1.8534580908247498},
	},
	3: {
		cesm.ATM: {A: 27261.147136920274, B: 0, C: 1, D: 45.21640938653103},
		cesm.OCN: {A: 7730.023464652367, B: 0.0046308512317815576, C: 1, D: 40.274224799033796},
		cesm.ICE: {A: 8466.094381631841, B: 0.0053638306049441755, C: 1, D: 6.828484142832224},
		cesm.LND: {A: 1472.8746609659934, B: 0, C: 3, D: 2.0422994131760115},
	},
	4: {
		cesm.ATM: {A: 27232.82556396037, B: 6.640210456885826e-11, C: 3, D: 45.26508412820299},
		cesm.OCN: {A: 7673.059122139757, B: 0, C: 1, D: 41.856820316795314},
		cesm.ICE: {A: 8110.663927835206, B: 0.0028115587401521735, C: 1, D: 9.569689725810798},
		cesm.LND: {A: 1496.3982521919854, B: 0.0012873317923477819, C: 1, D: 1.374111578430195},
	},
	5: {
		cesm.ATM: {A: 26943.493111220676, B: 8.158325271897365e-11, C: 3, D: 45.436058882479024},
		cesm.OCN: {A: 7634.984201802096, B: 0, C: 3, D: 42.39250856914057},
		cesm.ICE: {A: 7460.37611206143, B: 0, C: 3, D: 13.69755631707294},
		cesm.LND: {A: 1477.5030383098979, B: 0, C: 3, D: 2.01344132351251},
	},
	6: {
		cesm.ATM: {A: 27043.593919262228, B: 8.794136359278392e-12, C: 3, D: 45.87076733892505},
		cesm.OCN: {A: 7646.806214651039, B: 0, C: 3, D: 42.408297740687416},
		cesm.ICE: {A: 7888.695924923536, B: 8.483552860041608e-10, C: 3, D: 11.55394848984042},
		cesm.LND: {A: 1483.3291905939411, B: 0.00027445481209799783, C: 1, D: 1.8062665744841429},
	},
	8: {
		cesm.ATM: {A: 27240.933553880488, B: 7.257187222247723e-05, C: 1, D: 44.811678277397554},
		cesm.OCN: {A: 7695.102753466746, B: 4.981972393081326e-09, C: 3, D: 41.78436726303087},
		cesm.ICE: {A: 8026.0466370834, B: 0, C: 3, D: 12.095399451612176},
		cesm.LND: {A: 1487.3696196626631, B: 0.0006296651135134286, C: 1, D: 1.6632108423387504},
	},
	130: {
		cesm.ATM: {A: 27371.255867568874, B: 0.0006269520838953046, C: 1, D: 44.26158633749117},
		cesm.OCN: {A: 7651.146987344831, B: 0, C: 3, D: 42.420880365301336},
		cesm.ICE: {A: 7536.087326674046, B: 0, C: 3, D: 13.79471669125619},
		cesm.LND: {A: 1482.653535325522, B: 9.291626438500203e-10, C: 3, D: 1.8714244127014195},
	},
	138: {
		cesm.ATM: {A: 26912.47732892315, B: 8.345208717109815e-11, C: 3, D: 45.6386648892753},
		cesm.OCN: {A: 7738.868857992471, B: 0.004220805560998717, C: 1, D: 40.34014222666221},
		cesm.ICE: {A: 7852.181365043081, B: 0, C: 3, D: 12.454671792387886},
		cesm.LND: {A: 1480.107692906503, B: 0, C: 3, D: 1.948300861381937},
	},
}

// knownFits8th are the 1/8° models experiments.FitModels(Res8thDeg, seed)
// fitted for the seeds below, written out as knownFits are.
var knownFits8th = map[int]map[cesm.Component]perf.Model{
	1: {
		cesm.ATM: {A: 1.3043827115851954e+07, B: 0, C: 3, D: 296.86464869527174},
		cesm.OCN: {A: 8.268291262286956e+06, B: 0.011960011347750599, C: 1, D: 219.1450620188804},
		cesm.ICE: {A: 1.7805039893284952e+06, B: 0.004922317811506528, C: 1, D: 64.32512797115477},
		cesm.LND: {A: 65122.376851477886, B: 0.0005358749297877173, C: 1, D: 12.66117221914828},
	},
	6: {
		cesm.ATM: {A: 1.3074729905109324e+07, B: 0.0015635047387424674, C: 1, D: 254.91062964078796},
		cesm.OCN: {A: 8.146438184820793e+06, B: 0, C: 1, D: 336.2280606708974},
		cesm.ICE: {A: 1.8680796458315824e+06, B: 0.007723836441487591, C: 1, D: 21.102801565463583},
		cesm.LND: {A: 65161.33141866507, B: 0.0004864087155676373, C: 1, D: 12.534463458955459},
	},
	26: {
		cesm.ATM: {A: 1.3123668576604169e+07, B: 0.0019848531624274456, C: 1, D: 236.08864940956744},
		cesm.OCN: {A: 8.1751023519013645e+06, B: 0, C: 1, D: 317.8501420548873},
		cesm.ICE: {A: 1.9336803916504316e+06, B: 0.006651902436948884, C: 1, D: 27.467434934497508},
		cesm.LND: {A: 63835.0761701928, B: 1.801879208867212e-12, C: 3, D: 15.188134005536265},
	},
	31: {
		cesm.ATM: {A: 1.2982700018623149e+07, B: 1.3614949768469494e-12, C: 3, D: 279.8163643917019},
		cesm.OCN: {A: 8.1502412930618245e+06, B: 0, C: 1, D: 321.5000636433019},
		cesm.ICE: {A: 1.9642644566194015e+06, B: 0.005438373888258411, C: 1, D: 43.422930780448795},
		cesm.LND: {A: 65071.32242979355, B: 0.0005631118113817283, C: 1, D: 12.186533180712997},
	},
	38: {
		cesm.ATM: {A: 1.310899371253692e+07, B: 5.595612861174028e-13, C: 3, D: 278.63300492976055},
		cesm.OCN: {A: 8.197697003074298e+06, B: 0, C: 3, D: 325.94759821829336},
		cesm.ICE: {A: 1.8451563771226197e+06, B: 0.00018828877763279404, C: 1.308063735006345, D: 79.03339375441317},
		cesm.LND: {A: 64493.27680250328, B: 2.482957579674319e-06, C: 1.523530088362351, D: 14.116997739039865},
	},
	39: {
		cesm.ATM: {A: 1.3033979425614452e+07, B: 0.0029962862737008475, C: 1, D: 221.35336627406443},
		cesm.OCN: {A: 8.311511409674157e+06, B: 0.021010183631163328, C: 1, D: 182.1876245644697},
		cesm.ICE: {A: 1.7666315626522647e+06, B: 7.310950795603126e-13, C: 3, D: 154.68881320825025},
		cesm.LND: {A: 63792.98168752466, B: 4.322961761852118e-12, C: 3, D: 14.655225899771066},
	},
	58: {
		cesm.ATM: {A: 1.305011460673869e+07, B: 1.2359002138244857e-12, C: 3, D: 269.3729251070646},
		cesm.OCN: {A: 8.195976680100666e+06, B: 0, C: 1, D: 304.3028112318551},
		cesm.ICE: {A: 1.9701763060903e+06, B: 0.00015912059947832766, C: 1.3548698525184821, D: 44.801087646488384},
		cesm.LND: {A: 64316.07177296528, B: 1.0281323403427176e-08, C: 2.1165500413244756, D: 14.567293144801216},
	},
	60: {
		cesm.ATM: {A: 1.2945582382230856e+07, B: 9.329287561149787e-05, C: 1, D: 290.47164292102303},
		cesm.OCN: {A: 8.235741603679709e+06, B: 7.980985453828471e-11, C: 3, D: 277.84818372468663},
		cesm.ICE: {A: 2.014370518721909e+06, B: 0.0075494931652370255, C: 1, D: 25.01573121289779},
		cesm.LND: {A: 64139.2343794552, B: 0.00032913842150240826, C: 1, D: 13.615637773556148},
	},
	62: {
		cesm.ATM: {A: 1.3061776878550462e+07, B: 0.0015180777457296643, C: 1, D: 258.9806092511493},
		cesm.OCN: {A: 8.398893022372985e+06, B: 0.04605895855249746, C: 1, D: 0},
		cesm.ICE: {A: 1.8547580892565534e+06, B: 3.3782602301342254e-11, C: 2.7812081249167475, D: 124.22459124451363},
		cesm.LND: {A: 63649.69190657757, B: 0.00027886371724875953, C: 1, D: 14.046956513596148},
	},
	80: {
		cesm.ATM: {A: 1.294975993317556e+07, B: 2.536252732446858e-13, C: 3, D: 285.74572837775406},
		cesm.OCN: {A: 8.211887190249686e+06, B: 0, C: 1, D: 308.54636512924986},
		cesm.ICE: {A: 1.967958595013523e+06, B: 0.0016041011048661326, C: 1.0839990355727245, D: 59.29655593848695},
		cesm.LND: {A: 63968.0370596512, B: 1.414431805718464e-12, C: 3, D: 15.06301870323616},
	},
	90: {
		cesm.ATM: {A: 1.312457772222945e+07, B: 0.002224640720718239, C: 1, D: 233.5589636710471},
		cesm.OCN: {A: 8.199714692848552e+06, B: 0.007190568573716832, C: 1, D: 262.3931138853566},
		cesm.ICE: {A: 1.856111233464271e+06, B: 0.002821805959411489, C: 1, D: 92.29705080588825},
		cesm.LND: {A: 65402.90038735978, B: 0.0005412368464728466, C: 1, D: 12.419374277391421},
	},
	92: {
		cesm.ATM: {A: 1.3096820909363765e+07, B: 8.75701486752191e-09, C: 2.1595922243232013, D: 256.9528573635155},
		cesm.OCN: {A: 8.196679655080349e+06, B: 0.027247512916631276, C: 1, D: 147.2202883773233},
		cesm.ICE: {A: 1.8892741114611288e+06, B: 0.0019560518243412106, C: 1.0609467526366858, D: 79.57860079106868},
		cesm.LND: {A: 63441.212664184735, B: 2.49225529720822e-12, C: 3, D: 14.890208693609784},
	},
	140: {
		cesm.ATM: {A: 1.3111140201568468e+07, B: 0.003166023445789455, C: 1, D: 216.34614861837915},
		cesm.OCN: {A: 8.125398726832223e+06, B: 0, C: 1, D: 334.92866678238164},
		cesm.ICE: {A: 1.6804738593854874e+06, B: 0, C: 3, D: 152.85745987237428},
		cesm.LND: {A: 64583.83589874887, B: 2.377912004298459e-05, C: 1.256023056984575, D: 14.09655204166264},
	},
	142: {
		cesm.ATM: {A: 1.3075029412570413e+07, B: 0.0013929715980148477, C: 1, D: 255.0634200270243},
		cesm.OCN: {A: 8.155325066455919e+06, B: 0, C: 1, D: 321.1590475923632},
		cesm.ICE: {A: 1.8851480426360003e+06, B: 0.006993854108807102, C: 1, D: 30.142107915566235},
		cesm.LND: {A: 65445.046849387814, B: 0.0004910336190777441, C: 1, D: 12.261189185239566},
	},
	165: {
		cesm.ATM: {A: 1.2997869542138038e+07, B: 0, C: 3, D: 298.99913035356013},
		cesm.OCN: {A: 8.223272435069386e+06, B: 0, C: 1, D: 301.7026789469274},
		cesm.ICE: {A: 1.768649765870512e+06, B: 4.882501951838688e-12, C: 3, D: 119.00368504246475},
		cesm.LND: {A: 63730.5052159644, B: 2.23743665978608e-12, C: 3, D: 15.292319079732682},
	},
}

// knownFailure is a row of TestKnownFailures' first table: a layout-1 1°
// spec on a knownFits curve set.
type knownFailure struct {
	fit, nodes  int
	objective   Objective
	syncTol     float64
	constrained bool
}

func (tc knownFailure) spec() Spec {
	return Spec{
		Resolution: cesm.Res1Deg, Layout: cesm.Layout1, TotalNodes: tc.nodes, Perf: knownFits[tc.fit],
		Objective: tc.objective, SyncTol: tc.syncTol, ConstrainOcean: tc.constrained, ConstrainAtm: tc.constrained,
	}
}

func (tc knownFailure) name() string {
	return fmt.Sprintf("fit%d/%d/%v/sync=%g/constrained=%v", tc.fit, tc.nodes, tc.objective, tc.syncTol, tc.constrained)
}

// knownFailureRows are the rows on which SolveAllocation once answered
// wrong (see TestKnownFailures).
var knownFailureRows = []knownFailure{
	{3, 64, MaxMin, 0, false},     // was optimal, 2.3 % below
	{6, 512, MaxMin, 0, false},    // was optimal, 4.7 % below
	{8, 512, MinMax, 0.5, true},   // was optimal, 125 % above
	{1, 256, MinMax, 0.5, true},   // was infeasible
	{1, 128, MinMax, 2, true},     // was optimal, 45 % above
	{5, 128, MinMax, 0.5, true},   // was optimal, 388 % above
	{4, 1024, MinMax, 0.5, true},  // was infeasible
	{3, 512, MinMax, 0.5, true},   // was optimal, 237 % above
	{8, 256, MinMax, 0.5, true},   // was optimal, 39 % above
	{8, 1024, MinMax, 0.5, false}, // was optimal, 0.012 % above
}

// TestKnownFailures is the table of layout-1 specs on which SolveAllocation
// once returned a wrong answer, each held to bruteForce. Every row failed
// when the nonconvex specs still went to a branch-and-bound search:
//   - two max-min specs, free, that NLP-based branch-and-bound reported
//     optimal 2.3 % (fit seed 3, 64 nodes) and 4.7 % (fit seed 6, 512
//     nodes) below the max-min optimum;
//   - eight of the 97 sync-tolerance failures of outer approximation over
//     fit seeds 1–8 × 1° 128/256/512/1024 × SyncTol 0.5/2/10 s × constrained
//     and free, drawn with math/rand seed 1.
//
// The comment on each row gives the answer it used to get. A second table
// holds the 17 benchmark corpus rungs that outer approximation once
// answered above the exact optimum (benchmark/golden/corpus.json's
// rejected list, recorded before fixed-integer subproblems were exact LPs),
// each solved through SolveAllocation and held to ExhaustiveSearch within
// the solver's relative gap.
func TestKnownFailures(t *testing.T) {
	for _, tc := range knownFailureRows {
		s := tc.spec()
		t.Run(tc.name(), func(t *testing.T) {
			checkExact(t, s, func(s Spec) (*Decision, error) { return SolveAllocation(s, SolverOptions()) })
		})
	}
	relGap := SolverOptions().RelGap
	for _, tc := range []struct {
		res         cesm.Resolution
		fit, nodes  int
		constrained bool
	}{
		{cesm.Res8thDeg, 1, 8192, true},    // was 4.88e-03 above
		{cesm.Res8thDeg, 6, 32768, true},   // was 7.59e-04 above
		{cesm.Res8thDeg, 26, 16384, true},  // was 2.97e-04 above
		{cesm.Res8thDeg, 31, 16384, true},  // was 2.98e-04 above
		{cesm.Res8thDeg, 38, 16384, true},  // was 2.99e-04 above
		{cesm.Res8thDeg, 39, 8192, true},   // was 1.13e-02 above
		{cesm.Res8thDeg, 58, 16384, false}, // was 5.72e-04 above
		{cesm.Res8thDeg, 60, 8192, true},   // was 2.00e-02 above
		{cesm.Res8thDeg, 62, 32768, true},  // was 2.11e-04 above
		{cesm.Res8thDeg, 80, 8192, true},   // was 2.82e-02 above
		{cesm.Res8thDeg, 90, 16384, true},  // was 3.00e-04 above
		{cesm.Res8thDeg, 92, 8192, true},   // was 2.46e-02 above
		{cesm.Res1Deg, 130, 2048, false},   // was 1.54e-03 above
		{cesm.Res1Deg, 138, 128, true},     // was 1.53e+00 above
		{cesm.Res8thDeg, 140, 32768, true}, // was 8.96e-02 above
		{cesm.Res8thDeg, 142, 8192, true},  // was 1.47e-01 above
		{cesm.Res8thDeg, 165, 8192, true},  // was 4.23e-02 above
	} {
		fits := knownFits8th
		if tc.res == cesm.Res1Deg {
			fits = knownFits
		}
		s := Spec{
			Resolution: tc.res, Layout: cesm.Layout1, TotalNodes: tc.nodes, Perf: fits[tc.fit],
			ConstrainOcean: tc.constrained, ConstrainAtm: tc.constrained && tc.res == cesm.Res1Deg,
		}
		t.Run(fmt.Sprintf("corpus/fit%d/%v-%d/constrained=%v", tc.fit, tc.res, tc.nodes, tc.constrained), func(t *testing.T) {
			exact, err := ExhaustiveSearch(s)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SolveAllocation(s, SolverOptions())
			if err != nil {
				t.Fatal(err)
			}
			want := objectiveOf(s, exact)
			if rel := (objectiveOf(s, got) - want) / want; rel > relGap {
				t.Fatalf("%.12f (alloc %v, status %v) is %.3g above the exact %.12f", objectiveOf(s, got), got.Alloc, got.Status, rel, want)
			}
		})
	}
}
