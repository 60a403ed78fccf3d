"""The five command-line examples of the README: config text and printed rows.

Copied from the README so that a README edit cannot silently change what the
benchmark runs; the self-tests check that the copies still match it.  A
'...' line stands for rows the README leaves out.
"""

EXAMPLES = {
    "run": (
        "approach = B\np_abs = 0.5\nrounds = 16\nloss_db = 0.3\n",
        "round,cumulative_success,fidelity_phi_plus,fidelity_phi_minus,fidelity_psi_plus,"
        "fidelity_psi_minus\n"
        "1,0.123925,,0.99879,,\n"
        "2,0.183059,,0.998359,,\n"
        "...\n"
        "16,0.619619,0.996724,0.997312,0.997301,0.996981\n"
        "total,0.619619,0.996724,0.997312,0.997301,0.996981\n",
    ),
    "bounds": (
        "bounds_pairs = 0.25:20, 0.5:16, 0.9:4\n",
        "p_abs,rounds,fn_over_q_qnd,fp_over_p_dark\n"
        "0.25,20,0.968356,2.98873\n"
        "0.5,16,0.990086,0.999785\n"
        "0.9,4,0.998794,0.111098\n",
    ),
    "sweep": (
        "approach = B\np_abs_axis = 0.5, 0.7, 0.9\np_loss_axis = 0.066\noptimize_l = true\n",
        "p_abs,p_loss,approach,rounds_used,total_success,fidelity_phi_plus,fidelity_phi_minus,"
        "fidelity_psi_plus,fidelity_psi_minus\n"
        "0.5,0.066,B,12,0.636705,0.996477,0.997861,0.997135,0.996778\n"
        "0.7,0.066,B,8,0.738726,0.996316,0.998658,0.996943,0.996612\n"
        "0.9,0.066,B,8,0.811245,0.997964,0.998779,0.998637,0.998282\n",
    ),
    "chain": (
        "approach = A\np_abs = 0.5\nrounds = 10\np_loss = 0.066\nhops = 3\n",
        "hops,chain_success,chain_fidelity\n"
        "1,0.683064,0.980667\n"
        "2,0.466576,0.9619\n"
        "3,0.318701,0.943679\n",
    ),
    "optimize": (
        "approach = B\np_abs = 0.9\np_loss = 0.066\n",
        "rounds,l_z,l_x,total_success,fidelity_phi_plus,fidelity_phi_minus,fidelity_psi_plus,"
        "fidelity_psi_minus\n"
        "8,2,4,0.811245,0.997964,0.998779,0.998637,0.998282\n",
    ),
}

# the commands whose time is mostly interpreter and import start-up
LIGHT_COMMANDS = ("run", "bounds", "chain")
