"""
Sphere visualization export
===========================

Exports l2-normalized 3-D coordinates of training spectra before and after
projection, the data behind sphere plots comparing angle-preserving and
Euclidean subspaces. Plotting itself is left to external tools; the CSV has
columns source,label,u1,u2,u3.
"""

from collections import Counter

from specangle import (
    export_sphere_coords,
    fit_lpp,
    fit_slspp,
    pixels_to_sample_set,
    sphere_coords_csv,
    split_train_test,
    synth_scene,
)

cube, gt = synth_scene(rows=24, cols=24, bands=20, classes=4,
                       noise_sd=0.05, patch_size=6, seed=7)
train_coords, _ = split_train_test(gt, n_train=10, n_test=50, seed=0)
train = pixels_to_sample_set(cube, train_coords, gt)

# Both projections need at least three components for a 3-D view. The first
# three columns correspond to the largest stored eigenvalues.
slspp = fit_slspp(cube, train.coords, r=3, window=5)
lpp = fit_lpp(train, r=3)

rows = export_sphere_coords(train, [slspp, lpp])
print(f"{len(rows)} rows: {dict(Counter(tag for tag, *_ in rows))}")

csv_text = sphere_coords_csv(rows)
with open("sphere_coords.csv", "w") as fh:
    fh.write(csv_text)
print("wrote sphere_coords.csv; first rows:")
print("\n".join(csv_text.splitlines()[:5]))

# The same export is available from the command line:
#   specangle export-sphere --cube cube.csv --gt gt.csv \
#       --methods slspp,lpp --r 3 --out sphere.csv
