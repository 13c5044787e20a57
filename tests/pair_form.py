"""The click-pattern table at theta = 0 as a product of two independent pairs,
a test reference for every entry of the closed form at deep loss.

At relative angle 0 the source couples Alice's ``+`` mode only to Bob's
``-`` mode and Alice's ``-`` only to Bob's ``+``, so each pattern's
probability is p(a+, b-) p(a-, b+), where p(i, j) is the chance that the
pair's Alice detector clicks (i = 1) or not and its Bob detector clicks
(j = 1) or not. With c = 1 - g^2, x = g^2, e = 1 - d, z_k = 1 - tau_k,
D_a = c + x tau1, D_b = c + x tau2 and D_ab = c + x (tau1 + tau2 z1):

    p(0, 0) = c e^2 / D_ab
    p(1, 0) = c e (x tau1 z2 + d D_b) / (D_b D_ab)
    p(0, 1) = c e (x tau2 z1 + d D_a) / (D_a D_ab)
    p(1, 1) = [x tau1 tau2 (x D_ab + c) + d c x (tau2 z1 D_b + tau1 z2 D_a)
               + d^2 c D_a D_b] / (D_a D_b D_ab)

No term subtracts two nearly equal quantities, so the float form keeps
every entry to a few ulps however deep the loss; with ``Fraction`` inputs
the products are exact.
"""

from hbepp_link.patterns import CANONICAL_PATTERNS


def pair_form_table(g, tau1, tau2, dark_count) -> list:
    """The 16 pattern probabilities at theta = 0, in canonical order.

    Arithmetic only: floats give the float form, ``Fraction`` inputs the
    exact values.
    """
    x = g * g
    c = 1 - x
    e = 1 - dark_count
    d = dark_count
    z1, z2 = 1 - tau1, 1 - tau2
    d_a, d_b = c + x * tau1, c + x * tau2
    d_ab = c + x * (tau1 + tau2 * z1)
    pair = {
        (False, False): c * e * e / d_ab,
        (True, False): c * e * (x * tau1 * z2 + d * d_b) / (d_b * d_ab),
        (False, True): c * e * (x * tau2 * z1 + d * d_a) / (d_a * d_ab),
        (True, True): (
            x * tau1 * tau2 * (x * d_ab + c)
            + d * c * x * (tau2 * z1 * d_b + tau1 * z2 * d_a)
            + d * d * c * d_a * d_b
        ) / (d_a * d_b * d_ab),
    }
    return [
        pair[p.a_plus, p.b_minus] * pair[p.a_minus, p.b_plus]
        for p in CANONICAL_PATTERNS
    ]
