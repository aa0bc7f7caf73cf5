"""The DOP853 tableau: Hairer, Norsett & Wanner, *Solving Ordinary Differential
Equations I* (2nd ed.), section II.10, as float64.

Each number is the shortest decimal that reads back as the same float64 as
the 30-digit published coefficient.  Stage 12 is the derivative at the new
node (it enters the dense output only); stages 13-15 exist for the dense
output alone.

    C   nodes of all 16 stages
    A   stage rows; row 12 is B, the 8th-order weights of stages 0-11
    E5  5th-order error weights of stages 0-11
    E3  3rd-order error weights (B minus the 3rd-order embedded weights)
    D   rows of the dense-output correction: q = h D K over all 16 stages

`stepper(m)` turns the tableau's stages 1-11, update and error rows into
Python code for states of m numbers; the dense rows read stages 0, 5-15 and
D as numpy arrays (`singular_ode.DenseSolution.rows`).
"""

import functools

import numpy as np

C = np.array([
    0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
    1.0, 1.0, 0.1, 0.2, 0.7777777777777778])
A = np.zeros((16, 16))
for _i, _row in enumerate((
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0, 0.08876275643042054),
    (0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636),
    (0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
    (0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298),
    (0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0, 0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599, 4.06898981839711,
     0.3567271874552811, 0, 0, 0, -0.0013990241651590145, 2.9475147891527724,
     -9.15095847217987),
), start=1):
    A[_i, :_i] = _row
B = A[12, :12]
E3 = np.array([
    -0.18980075407240762, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082])
E5 = np.array([
    0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294])
D = np.array([
    [-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564],
])


@functools.cache
def stepper(m):
    """DOP853's attempt on states of m Python numbers, generated once for m
    with the tableau's nonzeros as literals.

    attempt(fun, r, h, y, f) -> (y_new, (e5, e3), stages 0-4, stages 5-11)
    takes stages 1-11 from y and f = fun(r, y) and returns the 8th-order
    update, the 5th- and 3rd-order error rows and the stages as flat lists.
    A stage state is y + (a_0 h) k_0 + (a_1 h) k_1 + ..., summed left to
    right with the weights a_l h formed once per row; the update reads the
    same way, and the error rows are the same sum without y.  So the
    rounding is fixed by the tableau, not by a BLAS kernel.  fun(r, y) takes
    a list and returns a length-m sequence, which is unpacked at once, so it
    may hand back one reused buffer.
    """
    rows = A.tolist() + [B.tolist(), E5.tolist(), E3.tolist()]
    c = C.tolist()

    def ks(stages):
        return ", ".join(f"k{i}_{j}" for i in stages for j in range(m)) + ","

    def row(k, line, plus_y=False):
        """Row k's weights (a_l h), hoisted, then line with its m sums filled in."""
        nz = [l for l, w in enumerate(rows[k]) if w]
        sums = ", ".join(" + ".join([f"y{j}"] * plus_y + [f"w{l} * k{l}_{j}" for l in nz])
                         for j in range(m))
        return [f"    w{l} = {rows[k][l]!r} * h" for l in nz] + [line.format(sums)]

    attempt = ["def attempt(fun, r, h, y, f):",
               f"    {', '.join(f'y{j}' for j in range(m))}, = y", f"    {ks([0])} = f"]
    for i in range(1, 12):
        attempt += row(i, f"    {ks([i])} = fun(r + {c[i]!r} * h, [{{}}])", plus_y=True)
    attempt += (row(16, "    v16 = [{}]", plus_y=True) + row(17, "    v17 = ({},)")
                + row(18, "    v18 = ({},)"))
    attempt.append(f"    return v16, (v17, v18), [{ks(range(5))}], [{ks(range(5, 12))}]")
    space = {}
    exec("\n".join(attempt), space)
    return space["attempt"]
