"""Image-processing substrate on numpy.

Everything the paper's Section 2 pipeline needs — colour conversion,
neighbour counting, morphology, connected components, hole filling,
rasterisation, distance transforms, metrics, and simple file I/O.
All of it is written from scratch except the connected-component
labelling, which is ``scipy.ndimage.label``.
"""

from .color import hsv_to_rgb, hue_distance, rgb_to_hsv
from .components import (
    Component,
    component_stats,
    label_components,
    largest_component,
    remove_small_components,
    top_n_components,
)
from .draw import (
    draw_capsule,
    draw_disk,
    draw_line,
    draw_polygon,
    paint_mask,
    segment_distance_field,
    stick_figure_mask,
)
from .filters import box_blur, gaussian_blur, gaussian_kernel, median_filter
from .holes import fill_holes, fill_single_pixel_holes, hole_mask
from .image import (
    blank_mask,
    blank_rgb,
    channel_max,
    channel_min,
    ensure_gray,
    ensure_mask,
    ensure_rgb,
    ensure_same_shape,
    rgb_to_gray,
    to_uint8,
)
from .metrics import (
    ConfusionCounts,
    confusion,
    f1_score,
    iou,
    mean_absolute_error,
    rmse,
    shadow_detection_rates,
)
from .morphology import (
    boundary,
    box_element,
    closing,
    cross_element,
    dilate,
    disk_element,
    erode,
    opening,
)
from .neighbors import (
    OFFSETS_4,
    OFFSETS_8,
    count_neighbors,
    remove_noise_pixels,
    shift,
)
from .registration import estimate_translation, shift_image, stabilize_frames
from .threshold import otsu_binarize, otsu_threshold
from .resize import (
    resize_bilinear,
    resize_mask,
    resize_nearest,
    resize_video_frames,
)
from .transform import chamfer_distance, euclidean_distance_exact, signed_distance
from .io import (
    load_masks_npz,
    read_pgm,
    read_ppm,
    save_masks_npz,
    write_mask_pgm,
    write_pgm,
    write_ppm,
)

__all__ = [
    "rgb_to_hsv",
    "hsv_to_rgb",
    "hue_distance",
    "Component",
    "component_stats",
    "label_components",
    "largest_component",
    "top_n_components",
    "remove_small_components",
    "draw_capsule",
    "draw_disk",
    "draw_line",
    "draw_polygon",
    "paint_mask",
    "segment_distance_field",
    "stick_figure_mask",
    "box_blur",
    "gaussian_blur",
    "gaussian_kernel",
    "median_filter",
    "fill_holes",
    "fill_single_pixel_holes",
    "hole_mask",
    "blank_mask",
    "blank_rgb",
    "channel_max",
    "channel_min",
    "ensure_gray",
    "ensure_mask",
    "ensure_rgb",
    "ensure_same_shape",
    "rgb_to_gray",
    "to_uint8",
    "ConfusionCounts",
    "confusion",
    "f1_score",
    "iou",
    "mean_absolute_error",
    "rmse",
    "shadow_detection_rates",
    "boundary",
    "box_element",
    "closing",
    "cross_element",
    "dilate",
    "disk_element",
    "erode",
    "opening",
    "OFFSETS_4",
    "OFFSETS_8",
    "count_neighbors",
    "remove_noise_pixels",
    "shift",
    "estimate_translation",
    "shift_image",
    "stabilize_frames",
    "otsu_binarize",
    "otsu_threshold",
    "resize_bilinear",
    "resize_mask",
    "resize_nearest",
    "resize_video_frames",
    "chamfer_distance",
    "euclidean_distance_exact",
    "signed_distance",
    "load_masks_npz",
    "read_pgm",
    "read_ppm",
    "save_masks_npz",
    "write_mask_pgm",
    "write_pgm",
    "write_ppm",
]
