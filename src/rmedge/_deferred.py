"""SciPy solvers imported at their first call: ``scipy.integrate`` (with ``scipy.linalg``,
``scipy.optimize`` and ``scipy.sparse``) takes longer to load than a short command runs."""


def solve_ivp(*args, **kwargs):
    from scipy.integrate import solve_ivp
    return solve_ivp(*args, **kwargs)


def eigvalsh_tridiagonal(*args, **kwargs):
    from scipy.linalg import eigvalsh_tridiagonal
    return eigvalsh_tridiagonal(*args, **kwargs)
